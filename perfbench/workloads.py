"""The benchmark's three workloads: set-up and timed phase of one pass.

A pass is what one fresh interpreter does: ``setup(seed)`` builds the
topology and generates the input -- datasets, feeds and the serve
arrival stream, all drawn from ``seed``, which is also the system's own
seed -- then ``run(state)`` is the timed phase.  Every workload returns
an :class:`Outcome` carrying the sim-clock observables, operation
accounting and a digest over every sim output, so ``run.py`` can check
that repetitions agree bit for bit.

Why these three (each stresses a different layer):

* ``batch-qct`` -- the paper's Fig. 6/7 grid, one query at a time on a
  private clock: WAN simulation of single-job flows, plus one offline
  prepare (probes, placement LPs, movement) per experiment.
* ``dynamic-replan`` -- the Table 7 protocol with a replan every two
  queries.  LP assembly and solve dominate; the WAN barely runs.
* ``serve-zipf`` -- the multi-tenant serve loop as ``repro serve --slo``
  runs it: many contending flows in one WAN session, a cube cache with
  hits, evictions and invalidations, and the only workload where the
  telemetry bus and its analyzers do work.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro import SystemConfig, ec2_ten_sites, make_system
from repro.core.dynamic import initial_workload_from_feeds, run_dynamic
from repro.core.runner import run_experiment
from repro.obs import instrument
from repro.obs.metrics import NULL_METRICS
from repro.obs.critpath import analyze_critical_paths
from repro.obs.slo import SloTracker, parse_slo_targets
from repro.obs.telemetry import TelemetryBus
from repro.obs.tracer import NULL_TRACER
from repro.serve.scheduler import ServeConfig, ServeScheduler
from repro.workloads.base import Workload, WorkloadSpec
from repro.workloads.bigdata import bigdata_workload
from repro.workloads.dynamic import DynamicDataFeed
from repro.workloads.facebook import facebook_workload
from repro.workloads.placement_init import InitialPlacement
from repro.workloads.tpcds import tpcds_workload

#: The bench scale of ``repro bench``: 512 KB records, ~100 per site.
SPEC = WorkloadSpec(
    records_per_site=100,
    record_bytes=512 * 1024,
    num_datasets=3,
    locality_bias=0.5,
)
BASE_UPLINK = "2MB/s"
KINDS = ("bigdata-scan", "bigdata-udf", "bigdata-aggregation", "tpcds", "facebook")
PLACEMENTS = ("random", "locality")
SCHEMES = ("iridium", "iridium-c", "bohr")
QUERY_LIMIT = 6
#: Slack of the Fig. 6/7 shape check (bench_fig06/07 use the same 2%).
SHAPE_SLACK = 1.02

DYNAMIC_KINDS = ("tpcds", "facebook", "bigdata-aggregation")
DYNAMIC_QUERIES = 16
DYNAMIC_REPLAN_EVERY = 2

SERVE_KIND = "tpcds"
SERVE_CONFIG = dict(
    num_tenants=4,
    tenant_weights=(2.0, 1.0, 1.0, 1.0),
    zipf_s=1.1,
    num_queries=200,
    arrival_rate=0.2,
    cache_capacity=4,
)
SERVE_INITIAL_FRACTION = 0.5
SERVE_BATCH_EVERY_S = 60.0
SERVE_BATCHES = 16

BATCH, DYNAMIC, SERVE = "batch-qct", "dynamic-replan", "serve-zipf"
#: Fixed per-workload QCT limit (sim seconds) for ``sim_slo_attain``,
#: near each workload's p90 QCT.
SLO_LIMIT_S = {BATCH: 5.5, DYNAMIC: 4.0, SERVE: 5.0}
#: Largest critical-path conservation error accepted (sim seconds).
RESIDUAL_LIMIT_S = 1e-9


@dataclass
class Outcome:
    """What one pass produced, on the sim clock only."""

    offered: int
    executed: int = 0
    cached: int = 0
    shed: int = 0
    aborted: int = 0
    #: Queries counted failed by an output check of the workload.
    check_failed: int = 0
    #: Output checks that failed: ``errors`` mean the outputs are wrong
    #: (accounting, conservation); ``claims`` mean a paper claim the
    #: workload asserts (the Fig. 6/7 shape) does not hold.
    errors: List[str] = field(default_factory=list)
    claims: List[str] = field(default_factory=list)
    #: Bohr's completed-query QCTs (sim s), in completion order.
    qcts: List[float] = field(default_factory=list)
    #: Offered Bohr queries that finished within the workload's limit.
    slo_met: int = 0
    slo_offered: int = 0
    #: WAN bytes moved plus shuffled by Bohr.
    wan_bytes: float = 0.0
    bohr_mean_qct: float = 0.0
    iridium_c_mean_qct: float = 0.0
    #: Extra sim observables the per-layer ledger reports.
    layer: Dict[str, float] = field(default_factory=dict)
    #: SHA-256 over every sim output, and over the analyzers' outputs.
    digest: str = ""
    obs_digest: str = ""


def topology():
    return ec2_ten_sites(base_uplink=BASE_UPLINK)


def system_config(seed: int) -> SystemConfig:
    # RDD overhead is charged from the host clock; keeping it out keeps
    # every QCT on the sim clock, so repetitions compare bit for bit.
    return SystemConfig(
        lag_seconds=8.0,
        partition_records=8,
        probe_k=30,
        seed=seed,
        charge_rdd_overhead=False,
    )


def generate(kind: str, placement: str, topo, seed: int) -> Workload:
    """One paper workload at bench scale."""
    where = InitialPlacement(placement)
    if kind.startswith("bigdata"):
        flavour = kind.partition("-")[2]
        return bigdata_workload(
            topo, placement=where, seed=seed, spec=SPEC, flavour=flavour
        )
    if kind == "tpcds":
        return tpcds_workload(topo, placement=where, seed=seed, spec=SPEC)
    return facebook_workload(topo, placement=where, seed=seed, spec=SPEC)


def _hex(value: float) -> str:
    return float(value).hex()


def _digest(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _count_slo(qcts: List[float], limit: float) -> int:
    return sum(1 for qct in qcts if qct <= limit)


# ----------------------------------------------------------------------
# batch-qct
# ----------------------------------------------------------------------


class _Inputs:
    """A workload factory whose first call returns the input generated in
    set-up; every later call regenerates a fresh copy (schemes mutate
    shards, so ``run_experiment`` asks for a new one per run)."""

    def __init__(self, kind: str, placement: str, topo, seed: int) -> None:
        self._args = (kind, placement, topo, seed)
        self._first = generate(*self._args)

    def __call__(self) -> Workload:
        workload, self._first = self._first, None
        return workload if workload is not None else generate(*self._args)


def setup_batch(seed: int):
    topo = topology()
    inputs = {
        (kind, placement): _Inputs(kind, placement, topo, seed)
        for kind in KINDS
        for placement in PLACEMENTS
    }
    return topo, system_config(seed), inputs


def _checked(sanitizer):
    """Install ``sanitizer`` (if any) with tracing and metrics off."""
    if sanitizer is None:
        return nullcontext()
    return instrument.instrumented(
        tracer=NULL_TRACER, metrics=NULL_METRICS, sanitizer=sanitizer
    )


def run_batch(state, sanitizer=None) -> Outcome:
    with _checked(sanitizer):
        return _run_batch(state)


def _run_batch(state) -> Outcome:
    topo, config, inputs = state
    mean_qct: Dict[Tuple[str, str, str], float] = {}
    ran: Dict[Tuple[str, str, str], int] = {}
    qcts: Dict[str, List[float]] = {scheme: [] for scheme in SCHEMES}
    outcome = Outcome(offered=0)
    lines = []
    for (kind, placement), factory in inputs.items():
        for scheme in SCHEMES:
            result = run_experiment(
                scheme, factory, topo, config, query_limit=QUERY_LIMIT
            )
            runs = result.runs + result.baseline_runs
            outcome.offered += len(runs)
            outcome.executed += len(runs) - result.aborted_queries
            outcome.aborted += result.aborted_queries
            qcts[scheme].extend(run.qct for run in result.runs)
            mean_qct[(kind, placement, scheme)] = result.mean_qct
            ran[(kind, placement, scheme)] = len(runs)
            if scheme == "bohr":
                outcome.qcts.extend(run.qct for run in result.runs)
                outcome.wan_bytes += result.prep.moved_bytes + sum(
                    run.wan_bytes for run in result.runs
                )
            lines.append(
                f"{kind}|{placement}|{scheme}|{_hex(result.prep.moved_bytes)}"
            )
            lines.extend(
                f"{run.dataset_id}|{_hex(run.qct)}|{_hex(run.wan_bytes)}"
                for run in runs
            )
        # The Fig. 6/7 shape bench_fig06/07 assert: bohr <= 1.02 x
        # iridium-c <= 1.02 x iridium.  The experiment on the wrong side of
        # a violated link fails with every query it ran.
        for slower, faster in (("bohr", "iridium-c"), ("iridium-c", "iridium")):
            ours = mean_qct[(kind, placement, slower)]
            theirs = mean_qct[(kind, placement, faster)]
            if ours > SHAPE_SLACK * theirs:
                outcome.claims.append(
                    f"shape {kind}/{placement}: {slower} {ours:.4f} s > "
                    f"{SHAPE_SLACK} x {faster} {theirs:.4f} s"
                )
                outcome.check_failed += ran[(kind, placement, slower)]
    outcome.bohr_mean_qct = sum(qcts["bohr"]) / len(qcts["bohr"])
    outcome.iridium_c_mean_qct = sum(qcts["iridium-c"]) / len(qcts["iridium-c"])
    outcome.slo_offered = len(outcome.qcts)
    outcome.slo_met = _count_slo(outcome.qcts, SLO_LIMIT_S[BATCH])
    outcome.digest = _digest(lines)
    return outcome


# ----------------------------------------------------------------------
# dynamic-replan
# ----------------------------------------------------------------------


def setup_dynamic(seed: int):
    topo = topology()
    inputs = []
    for kind in DYNAMIC_KINDS:
        template = generate(kind, "random", topo, seed)
        feeds = {
            dataset.dataset_id: DynamicDataFeed.split(
                dataset, initial_fraction=0.25, num_batches=15,
                interval_seconds=20.0,
            )
            for dataset in template.catalog
        }
        inputs.append((kind, initial_workload_from_feeds(template, feeds), feeds))
    return topo, system_config(seed), inputs


class _Recorder:
    """Records the WAN bytes a controller moves and shuffles.

    ``run_dynamic`` returns QCTs only; these instance-level wrappers read
    the movement and shuffle volumes off the values the controller
    already returns, without changing them."""

    def __init__(self, controller) -> None:
        self.moved = 0.0
        self.shuffled = 0.0
        self.lines: List[str] = []
        prepare = controller.prepare
        place_new_data = controller.place_new_data
        run_query = controller.run_query

        def record_prepare(workload):
            report = prepare(workload)
            self.moved += report.moved_bytes
            self.lines.append(f"prepare|{_hex(report.moved_bytes)}")
            return report

        def record_place(workload, arrivals):
            movement = place_new_data(workload, arrivals)
            moved = movement.total_moved_bytes if movement is not None else 0.0
            self.moved += moved
            self.lines.append(f"place|{_hex(moved)}")
            return movement

        def record_query(workload, query):
            job = run_query(workload, query)
            self.shuffled += job.total_wan_bytes
            self.lines.append(
                f"query|{query.spec.dataset_id}|{_hex(job.qct)}|"
                f"{_hex(job.total_wan_bytes)}"
            )
            return job

        controller.prepare = record_prepare
        controller.place_new_data = record_place
        controller.run_query = record_query


def run_dynamic_pass(state, sanitizer=None) -> Outcome:
    with _checked(sanitizer):
        return _run_dynamic_pass(state)


def _run_dynamic_pass(state) -> Outcome:
    topo, config, inputs = state
    outcome = Outcome(offered=0)
    lines = []
    for kind, workload, feeds in inputs:
        controller = make_system("bohr", topo, config)
        recorder = _Recorder(controller)
        result = run_dynamic(
            controller, workload, feeds,
            num_queries=DYNAMIC_QUERIES, replan_every=DYNAMIC_REPLAN_EVERY,
        )
        outcome.offered += DYNAMIC_QUERIES
        outcome.executed += len(result.qcts) - result.aborted_queries
        outcome.aborted += result.aborted_queries
        outcome.qcts.extend(result.qcts)
        outcome.wan_bytes += recorder.moved + recorder.shuffled
        lines.append(
            f"{kind}|{result.replans}|{result.batches_applied}|"
            f"{result.fault_replans}"
        )
        lines.extend(recorder.lines)
    outcome.bohr_mean_qct = sum(outcome.qcts) / len(outcome.qcts)
    outcome.slo_offered = outcome.offered
    outcome.slo_met = _count_slo(outcome.qcts, SLO_LIMIT_S[DYNAMIC])
    outcome.digest = _digest(lines)
    return outcome


# ----------------------------------------------------------------------
# serve-zipf
# ----------------------------------------------------------------------


def setup_serve(seed: int):
    topo = topology()
    template = generate(SERVE_KIND, "random", topo, seed)
    feeds = {
        dataset.dataset_id: DynamicDataFeed.split(
            dataset, initial_fraction=SERVE_INITIAL_FRACTION,
            num_batches=SERVE_BATCHES, interval_seconds=SERVE_BATCH_EVERY_S,
        )
        for dataset in template.catalog
    }
    workload = initial_workload_from_feeds(template, feeds)
    batch_times = [
        SERVE_BATCH_EVERY_S * (index + 1) for index in range(SERVE_BATCHES)
    ]
    serve = ServeConfig(seed=seed, **SERVE_CONFIG)
    return topo, system_config(seed), workload, feeds, batch_times, serve


def run_serve(state, sanitizer=None, telemetry=True) -> Outcome:
    """Prepare and serve.  With ``telemetry`` this is the CLI's ``--slo``
    path: ``instrumented(telemetry=bus)`` records, then the critical-path
    analyzer and the SLO tracker run over the bus's events.  Without it
    (the obs-overhead comparison) nothing is instrumented and the sim
    outputs are the same."""
    topo, config, workload, feeds, batch_times, serve = state
    bus = TelemetryBus() if telemetry else None
    if telemetry:
        region = instrument.instrumented(telemetry=bus, sanitizer=sanitizer)
    else:
        region = _checked(sanitizer)
    with region:
        controller = make_system("bohr", topo, config)
        prep = controller.prepare(workload)
        scheduler = ServeScheduler(
            controller, workload, serve, feeds=feeds, batch_times=batch_times
        )
        report = scheduler.run()
        if not telemetry:
            return serve_outcome(report, scheduler, prep, None, None)
        crit = analyze_critical_paths(bus.events)
        tenants = [tenant.name for tenant in report.tenants]
        tracker = SloTracker(
            parse_slo_targets([f"default={SLO_LIMIT_S[SERVE]}"], tenants)
        )
        tracker.observe_events(bus.events)
        slo = tracker.finalize(report.makespan)
    outcome = serve_outcome(report, scheduler, prep, crit, slo)
    outcome.layer["events"] = float(len(bus.events))
    return outcome


def serve_outcome(report, scheduler, prep, crit, slo) -> Outcome:
    """Accounting, output checks and sim observables of one serve run;
    ``crit`` and ``slo`` are ``None`` when telemetry was off."""
    limit = SLO_LIMIT_S[SERVE]
    statuses = [query.status for query in report.queries]
    outcome = Outcome(
        offered=report.config.num_queries,
        executed=statuses.count("executed"),
        cached=statuses.count("cached"),
        shed=statuses.count("shed"),
    )
    accounted = outcome.executed + outcome.cached + outcome.shed + outcome.aborted
    if accounted != outcome.offered or outcome.cached != report.cache_hits:
        outcome.errors.append(
            f"accounting: {outcome.executed} executed + {outcome.cached} cached "
            f"+ {outcome.shed} shed of {outcome.offered} offered, "
            f"{report.cache_hits} cache hits"
        )
        outcome.check_failed = outcome.offered
    outcome.qcts = [
        query.qct for query in report.queries
        if query.status in ("executed", "cached")
    ]
    outcome.slo_offered = outcome.offered
    outcome.slo_met = _count_slo(outcome.qcts, limit)
    outcome.wan_bytes = prep.moved_bytes + report.total_wan_bytes
    outcome.bohr_mean_qct = sum(outcome.qcts) / len(outcome.qcts)
    outcome.digest = _digest([report.sim_digest(), _hex(prep.moved_bytes)])
    outcome.layer.update(
        cache_hits=float(report.cache_hits),
        cache_lookups=float(report.cache_hits + report.cache_misses),
        cache_evictions=float(report.cache_evictions),
        invalidations=float(scheduler.cache.stats.invalidations),
    )
    if crit is None:
        return outcome
    residual = crit.max_residual()
    if residual > RESIDUAL_LIMIT_S:
        bad = sum(1 for path in crit.paths if abs(path.residual) > RESIDUAL_LIMIT_S)
        outcome.errors.append(f"critpath residual {residual:.3e} s on {bad} queries")
        outcome.check_failed += bad
    tracked = sum(row.completed - row.violations for row in slo.rows)
    if tracked != outcome.slo_met:
        outcome.errors.append(
            f"slo: tracker counts {tracked} within {limit} s, report {outcome.slo_met}"
        )
        outcome.check_failed += abs(tracked - outcome.slo_met)
    totals = crit.component_totals()
    outcome.layer.update(
        queue_wait_s=totals["queue_wait"],
        wan_contention_s=totals["wan_contention"],
    )
    outcome.obs_digest = _digest([crit.digest(), slo.digest()])
    return outcome


#: name -> (setup(seed) -> state, run(state, sanitizer) -> Outcome)
WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    BATCH: (setup_batch, run_batch),
    DYNAMIC: (setup_dynamic, run_dynamic_pass),
    SERVE: (setup_serve, run_serve),
}

