"""Tests of the benchmark's own logic (no workload is run).

    python3 -m pytest -q perfbench
"""

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from spans import EntryPoint, SpanRecorder  # noqa: E402
from stats import (  # noqa: E402
    covered,
    failed_count,
    percentile,
    self_times,
    tail_percentile,
)


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    # parent [0, 10] with children [1, 3] and [5, 6]
    spans = [(0.0, 10.0, -1), (1.0, 3.0, 0), (5.0, 6.0, 0)]
    assert self_times(spans) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # children [1, 4] and [3, 6] overlap on [3, 4]: they cover 5 s, not 6
    spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (3.0, 6.0, 0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_self_time_of_nested_spans_subtracts_each_level_once():
    # a grandchild is covered by its parent, not subtracted again
    spans = [(0.0, 10.0, -1), (2.0, 8.0, 0), (3.0, 5.0, 1)]
    assert self_times(spans) == pytest.approx([4.0, 4.0, 2.0])


def test_child_sticking_out_is_clipped_to_the_parent():
    spans = [(0.0, 4.0, -1), (3.0, 9.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_covered_merges_touching_and_contained_intervals():
    assert covered([(1, 2), (2, 3), (1.5, 1.7), (5, 6)], 0, 10) == pytest.approx(3.0)
    assert covered([], 0, 10) == pytest.approx(0.0)


# ----------------------------------------------------------------------
# tail percentile
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [
        (19, None),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (60, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_percentile_leaves_at_least_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_tail_value_has_ten_samples_beyond_it():
    values = list(range(1, 201))
    pct = tail_percentile(len(values))
    tail = percentile(values, pct)
    assert sum(1 for value in values if value > tail) == 10


def test_nearest_rank_percentile():
    assert percentile([5, 1, 3, 2, 4], 50.0) == 3
    assert percentile([1, 2, 3, 4], 75.0) == 3
    assert percentile([7], 99.9) == 7


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------


def test_failed_count_adds_shed_aborted_and_rejected_queries():
    assert failed_count(200, shed=3, aborted=1, check_failed=2, diverged=False) == 6
    assert failed_count(10, shed=0, aborted=0, check_failed=0, diverged=False) == 0


def test_failed_count_fails_a_diverged_pass_whole_and_never_exceeds_offered():
    assert failed_count(48, shed=0, aborted=0, check_failed=0, diverged=True) == 48
    assert failed_count(10, shed=8, aborted=0, check_failed=8, diverged=False) == 10


def _pass(seed, digest="d", obs="o", mode="plain", **fields):
    result = {
        "seed": seed, "mode": mode, "offered": 20, "executed": 20, "cached": 0,
        "shed": 0, "aborted": 0, "check_failed": 0, "errors": [], "claims": [],
        "qcts": [1.0] * 20, "slo_met": 20, "slo_offered": 20, "wan_bytes": 1e9,
        "bohr_mean_qct": 1.0, "iridium_c_mean_qct": 0.0, "digest": digest,
        "obs_digest": obs, "setup_s": 0.5, "timed_s": 2.0, "rss_mb": 100.0,
    }
    result.update(fields)
    return result


def test_a_repetition_that_diverges_fails_all_its_queries():
    passes = [_pass(1001), _pass(1), _pass(1001, digest="other")]
    problems = run.check_repeats(passes)
    assert len(problems) == 1 and "digest" in problems[0]
    assert run.account(passes) == {"attempted": 60, "failed": 20}


def test_analyzer_digests_compare_only_among_passes_that_ran_them():
    passes = [_pass(5), _pass(5, obs="", mode="bare"), _pass(5, obs="x")]
    problems = run.check_repeats(passes)
    assert [p for p in problems if "obs_digest" in p] and len(problems) == 1


def test_shed_queries_fail_and_count_against_attainment():
    # 20 of 22 offered executed, all within the limit; 2 shed
    done = dict(offered=22, shed=2, slo_offered=22)
    passes = [_pass(1, **done), _pass(1, **done)]
    run.check_repeats(passes)
    assert run.account(passes) == {"attempted": 44, "failed": 4}
    metrics, _ = run.end_to_end(passes)
    assert metrics["sim_slo_attain"] == pytest.approx(20 / 22)


def test_end_to_end_times_each_input_by_the_median_of_its_passes():
    passes = [
        _pass(1001, timed_s=2.0), _pass(1, timed_s=4.0), _pass(1001, timed_s=3.0),
    ]
    run.check_repeats(passes)
    metrics, _ = run.end_to_end(passes)
    # 40 queries over 2.5 s (median of 2.0 and 3.0) + 4.0 s
    assert metrics["queries_per_s"] == pytest.approx(40 / 6.5)


def test_tail_is_the_mean_of_each_inputs_tail():
    # 20 samples each: the tail percentile of every input is p50
    passes = [
        _pass(seed, qcts=[scale * value for value in range(1, 21)])
        for seed, scale in ((1001, 1.0), (1, 10.0), (2, 100.0))
    ]
    run.check_repeats(passes)
    metrics, extra = run.end_to_end(passes)
    assert metrics["sim_qct_tail_s"] == pytest.approx((10.0 + 100.0 + 1000.0) / 3)
    assert extra["tail_pcts"] == [50.0] and extra["samples"] == [20, 20, 20]


# ----------------------------------------------------------------------
# span recording
# ----------------------------------------------------------------------


@pytest.fixture
def fake_modules(monkeypatch):
    """``fake_lib`` defines the entry points; ``fake_user`` imported
    ``solve`` by name, as ``repro.placement.joint`` does."""
    lib = types.ModuleType("fake_lib")

    def solve(x):
        return x + 1

    class Planner:
        def plan(self, x):
            return lib.solve(x) * 2

        @classmethod
        def build(cls, x):
            return x

    lib.solve, lib.Planner = solve, Planner
    user = types.ModuleType("fake_user")
    user.solve = solve
    user.call = lambda x: user.solve(x)
    monkeypatch.setitem(sys.modules, "fake_lib", lib)
    monkeypatch.setitem(sys.modules, "fake_user", user)
    return lib, user


ENTRIES = (
    EntryPoint("placement", "fake_lib", "solve", frozenset({"batch-qct"})),
    EntryPoint("placement", "fake_lib", "Planner.plan", frozenset({"batch-qct"})),
    EntryPoint("olap", "fake_lib", "Planner.build", frozenset({"serve-zipf"})),
)


def test_wrappers_reach_names_imported_by_callers(fake_modules):
    lib, user = fake_modules
    original = lib.solve
    with SpanRecorder(ENTRIES) as recorder:
        recorder.install(extra_modules=("fake_lib", "fake_user"))
        assert user.call(1) == 2
        assert lib.Planner().plan(1) == 4
        assert lib.Planner.build(3) == 3
        calls = recorder.calls()
    assert calls == {"fake_lib.solve": 2, "fake_lib.Planner.plan": 1,
                     "fake_lib.Planner.build": 1}
    # the nested solve call is a child of plan
    parents = [span[3] for span in recorder.spans]
    assert parents == [-1, -1, 1, -1]
    assert lib.solve is original and user.solve is original


def test_coverage_names_entry_points_a_workload_never_called(fake_modules):
    lib, _ = fake_modules
    with SpanRecorder(ENTRIES) as recorder:
        recorder.install(extra_modules=("fake_lib", "fake_user"))
        lib.Planner.build(1)
        assert recorder.missing("batch-qct") == ["fake_lib.solve", "fake_lib.Planner.plan"]
        assert recorder.missing("serve-zipf") == []


def test_ledger_sums_self_time_per_layer(fake_modules):
    lib, _ = fake_modules
    with SpanRecorder(ENTRIES) as recorder:
        recorder.install(extra_modules=("fake_lib",))
        lib.Planner().plan(1)
        ledger = recorder.ledger()
    assert ledger["fake_lib.solve.calls"] == 1
    assert ledger["layer.placement.self_s"] == pytest.approx(
        ledger["fake_lib.Planner.plan.total_s"]
    )


# ----------------------------------------------------------------------
# definitions
# ----------------------------------------------------------------------


def test_benchmark_json_matches_the_metric_definitions():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        bench = json.load(handle)
    definitions = run.load_definitions()
    gated = {
        entry["name"]: (entry["unit"], entry["better"])
        for entry in definitions["end_to_end"] if entry["gated"]
    }
    assert {
        entry["name"]: (entry["unit"], entry["better"]) for entry in bench["end_to_end"]
    } == gated
    assert [entry["name"] for entry in bench["per_layer"]] == [
        entry["name"] for entry in definitions["per_layer"]
    ]
    assert {entry["name"] for entry in bench["workloads"]} == set(run.PANEL)
    for name, workload in definitions["workloads"].items():
        assert workload["panel"] == run.PANEL[name]


def test_every_per_layer_metric_is_computed():
    definitions = run.load_definitions()
    ledger = {key: 0.0 for key in _ledger_keys()}
    traced = {"ledger": ledger, "layer": {}, "seed": 1, "mode": "traced",
              "timed_s": 1.0, "missing": [], "violations": []}
    plain = {"seed": 1, "mode": "plain", "timed_s": 1.0}
    metrics, problems = run.per_layer("batch-qct", [plain, traced])
    assert set(metrics) == {entry["name"] for entry in definitions["per_layer"]}
    assert problems == []


def _ledger_keys():
    recorder = SpanRecorder()
    return recorder.ledger().keys()
