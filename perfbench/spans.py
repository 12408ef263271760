"""Span recording around the program's public entry points.

Used only in traced passes.  Each entry point is wrapped at every name
its callers resolve: a class attribute for methods, and every loaded
module's global that is the same function object for free functions
(``repro.placement.joint`` imports ``solve_data_lp`` by name, so that
binding is replaced too).  Spans are kept in memory as ``(entry, start,
end, parent, items)`` and turned into the per-layer ledger at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

from stats import median, self_times

BATCH, DYNAMIC, SERVE = "batch-qct", "dynamic-replan", "serve-zipf"
ALL = frozenset((BATCH, DYNAMIC, SERVE))


def _flows(args, kwargs, result) -> int:
    transfers = args[1] if len(args) > 1 else kwargs["transfers"]
    return len(transfers)


def _moved_bytes(args, kwargs, result) -> float:
    return result.total_moved_bytes


@dataclass(frozen=True)
class EntryPoint:
    """One public entry point of a layer, and where it must be called."""

    layer: str
    module: str
    qualname: str
    #: Workloads on which a traced pass must record at least one call.
    required: FrozenSet[str]
    #: Work items a call handled, from ``(args, kwargs, result)``.
    items: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module.rpartition('.')[2]}.{self.qualname}"


ENTRY_POINTS: Sequence[EntryPoint] = (
    EntryPoint("wan", "repro.wan.transfer", "TransferScheduler.simulate", ALL),
    EntryPoint("wan", "repro.wan.transfer", "WanSession.submit", ALL, _flows),
    EntryPoint("wan", "repro.wan.transfer", "WanSession.advance", ALL),
    EntryPoint("placement", "repro.placement.lp", "solve_data_lp", ALL),
    EntryPoint("placement", "repro.placement.lp", "solve_task_lp", ALL),
    EntryPoint("placement", "repro.placement.solver", "solve_lp", ALL),
    EntryPoint("placement", "repro.placement.joint", "JointPlanner.plan", ALL),
    EntryPoint(
        "placement", "repro.placement.iridium", "IridiumPlanner.plan",
        frozenset((BATCH,)),
    ),
    EntryPoint(
        "placement", "repro.placement.plan", "execute_plan", ALL, _moved_bytes
    ),
    EntryPoint(
        "engine", "repro.engine.job", "MapReduceEngine.run",
        frozenset((BATCH, DYNAMIC)),
    ),
    EntryPoint("engine", "repro.engine.job", "MapReduceEngine.plan_job", ALL),
    EntryPoint("engine", "repro.engine.job", "MapReduceEngine.complete_job", ALL),
    EntryPoint("olap", "repro.olap.dimension_cube", "DimensionCubeSet.build", ALL),
    EntryPoint("similarity", "repro.similarity.probes", "ProbeBuilder.build", ALL),
    EntryPoint(
        "similarity", "repro.similarity.checker",
        "SimilarityChecker.check_against_sites", ALL,
    ),
    EntryPoint("core", "repro.core.controller", "Controller.prepare", ALL),
    EntryPoint(
        "core", "repro.core.controller", "Controller.run_query",
        frozenset((BATCH, DYNAMIC)),
    ),
    EntryPoint(
        "core", "repro.core.controller", "Controller.place_new_data",
        frozenset((DYNAMIC,)),
    ),
    EntryPoint("core", "repro.core.dynamic", "run_dynamic", frozenset((DYNAMIC,))),
    EntryPoint("serve", "repro.serve.scheduler", "ServeScheduler.run", frozenset((SERVE,))),
    EntryPoint("obs", "repro.obs.critpath", "analyze_critical_paths", frozenset((SERVE,))),
    EntryPoint("obs", "repro.obs.slo", "SloTracker.observe_events", frozenset((SERVE,))),
    EntryPoint("obs", "repro.obs.slo", "SloTracker.finalize", frozenset((SERVE,))),
    EntryPoint(
        "workloads", "repro.workloads.bigdata", "bigdata_workload",
        frozenset((BATCH, DYNAMIC)),
    ),
    EntryPoint("workloads", "repro.workloads.tpcds", "tpcds_workload", ALL),
    EntryPoint(
        "workloads", "repro.workloads.facebook", "facebook_workload",
        frozenset((BATCH, DYNAMIC)),
    ),
    EntryPoint(
        "workloads", "repro.core.dynamic", "initial_workload_from_feeds",
        frozenset((DYNAMIC, SERVE)),
    ),
    EntryPoint(
        "workloads", "repro.workloads.dynamic", "DynamicDataFeed.split",
        frozenset((DYNAMIC, SERVE)),
    ),
)


class SpanRecorder:
    """Installs the wrappers and keeps every span in memory."""

    def __init__(self, entry_points: Sequence[EntryPoint] = ENTRY_POINTS) -> None:
        self.entry_points = list(entry_points)
        #: (entry index, start, end, parent span index, items)
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []

    # -- installation ---------------------------------------------------

    def install(self, extra_modules: Sequence[str] = ()) -> None:
        """Wrap every entry point; ``extra_modules`` are further modules
        (besides ``repro.*``) whose imported names must be rebound."""
        for index, entry in enumerate(self.entry_points):
            owner = importlib.import_module(entry.module)
            *path, attr = entry.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, index))
            else:
                wrapped = self._wrap(raw, index)
            if path:
                self._rebind(owner, attr, raw, wrapped)
                continue
            for module in self._modules(extra_modules):
                for name, value in list(vars(module).items()):
                    if value is raw:
                        self._rebind(module, name, raw, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @staticmethod
    def _modules(extra: Sequence[str]):
        names = [
            name for name in sys.modules
            if name == "repro" or name.startswith("repro.") or name in extra
        ]
        return [sys.modules[name] for name in names if sys.modules[name] is not None]

    def _rebind(self, owner, name: str, raw, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._restore.append(lambda: setattr(owner, name, raw))

    def _wrap(self, function: Callable, index: int) -> Callable:
        items = self.entry_points[index].items
        spans, stack = self.spans, self._stack
        clock = time.perf_counter  # lint: allow[R001]

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = [index, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            position = len(spans)
            spans.append(span)
            stack.append(position)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if items is not None:
                span[4] = float(items(args, kwargs, result))
            return result

        return traced

    # -- the ledger -----------------------------------------------------

    def calls(self) -> Dict[str, int]:
        counts = {entry.name: 0 for entry in self.entry_points}
        for span in self.spans:
            counts[self.entry_points[span[0]].name] += 1
        return counts

    def missing(self, workload: str) -> List[str]:
        """Entry points this workload must call but did not."""
        counts = self.calls()
        return [
            entry.name for entry in self.entry_points
            if workload in entry.required and counts[entry.name] == 0
        ]

    def ledger(self) -> Dict[str, float]:
        """Per-entry-point totals: calls, inclusive and self seconds, items,
        keyed ``<entry>.calls`` etc., plus the per-layer self time."""
        selfs = self_times([(span[1], span[2], span[3]) for span in self.spans])
        out: Dict[str, float] = {}
        durations: Dict[str, List[float]] = {}
        for entry in self.entry_points:
            for key in ("calls", "total_s", "self_s", "items"):
                out[f"{entry.name}.{key}"] = 0.0
            out.setdefault(f"layer.{entry.layer}.self_s", 0.0)
        for span, own in zip(self.spans, selfs):
            entry = self.entry_points[span[0]]
            out[f"{entry.name}.calls"] += 1
            out[f"{entry.name}.total_s"] += span[2] - span[1]
            out[f"{entry.name}.self_s"] += own
            out[f"{entry.name}.items"] += span[4]
            out[f"layer.{entry.layer}.self_s"] += own
            durations.setdefault(entry.name, []).append(span[2] - span[1])
        for name, values in durations.items():
            out[f"{name}.median_s"] = median(values)
        return out

    def rows(self) -> List[list]:
        """Spans as ``[entry name, start, end, parent]`` rows."""
        return [
            [self.entry_points[span[0]].name, span[1], span[2], span[3]]
            for span in self.spans
        ]
