"""Placement LP fast path parity: template builders and the direct HiGHS
call against their row-by-row and ``linprog`` references.

The reference builders below are the original row-by-row assembly of
equations (3)-(7), kept here as the oracle.  The fast path must hand
HiGHS the same LPs bit for bit (matrices, bounds and variable names),
the direct HiGHS call must return what ``linprog(method="highs")``
returns for them, and the planners must therefore reach identical
decisions.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from typing import Dict, List, Mapping

import numpy as np
import pytest

from repro.errors import PlacementError, SolverError
from repro.placement import iridium as iridium_mod
from repro.placement import joint as joint_mod
from repro.placement.iridium import IridiumPlanner
from repro.placement.joint import JointPlanner
from repro.placement.lp import (
    DataLpTemplate,
    shuffle_bytes_after_moves,
    solve_data_lp,
    solve_task_lp,
)
from repro.placement.model import PlacementProblem
from repro.placement.solver import LinearProgram, LpSolution, solve_lp
from repro.wan.presets import ec2_ten_sites
from repro.wan.topology import Site, WanTopology

linprog = pytest.importorskip("scipy.optimize").linprog

_EPS_BYTES = 1e-6


# -- reference builders (the original row-by-row assembly) -----------------


def reference_data_program(
    problem: PlacementProblem, reduce_fractions: Mapping[str, float]
) -> LinearProgram:
    sites = problem.site_names
    datasets = problem.dataset_ids
    pairs = [(i, j) for i in sites for j in sites if i != j]
    var_names = ["t"] + [f"x[{a}][{i}->{j}]" for a in datasets for (i, j) in pairs]
    index_of = {name: position for position, name in enumerate(var_names)}
    num_vars = len(var_names)

    def x_index(dataset, src, dst):
        return index_of[f"x[{dataset}][{src}->{dst}]"]

    rows: List[np.ndarray] = []
    bounds: List[float] = []

    def add_f_terms(row, a, site, scale):
        local_k = problem.R(a) * (1.0 - problem.S(a, site)) * scale
        for j in sites:
            if j == site:
                continue
            row[x_index(a, site, j)] -= local_k
            inflow_k = problem.R(a) * (1.0 - problem.Sij(a, j, site)) * scale
            row[x_index(a, j, site)] += inflow_k
        return local_k * problem.I(a, site)

    for i in sites:
        r_i = reduce_fractions.get(i, 0.0)
        row = np.zeros(num_vars)
        row[0] = -1.0
        constant = 0.0
        for a in datasets:
            constant -= add_f_terms(row, a, i, (1.0 - r_i) / problem.U(i))
        rows.append(row)
        bounds.append(constant)

        row = np.zeros(num_vars)
        row[0] = -1.0
        constant = 0.0
        for a in datasets:
            for j in sites:
                if j == i:
                    continue
                constant -= add_f_terms(row, a, j, r_i / problem.D(i))
        rows.append(row)
        bounds.append(constant)

        row = np.zeros(num_vars)
        for a in datasets:
            for j in sites:
                if j != i:
                    row[x_index(a, i, j)] = 1.0
        rows.append(row)
        bounds.append(problem.lag_seconds * problem.U(i))

        row = np.zeros(num_vars)
        for a in datasets:
            for k_site in sites:
                if k_site != i:
                    row[x_index(a, k_site, i)] = 1.0
        rows.append(row)
        bounds.append(problem.lag_seconds * problem.D(i))

        for a in datasets:
            row = np.zeros(num_vars)
            for j in sites:
                if j != i:
                    row[x_index(a, i, j)] = 1.0
            rows.append(row)
            bounds.append(problem.I(a, i))

        for a in datasets:
            for j in sites:
                if j == i:
                    continue
                cap = problem.mobility_cap(a, i, j)
                if cap >= 1.0:
                    continue
                row = np.zeros(num_vars)
                row[x_index(a, i, j)] = 1.0
                rows.append(row)
                bounds.append(problem.I(a, i) * cap)

    objective = np.zeros(num_vars)
    objective[0] = 1.0
    return LinearProgram(
        c=objective,
        a_ub=np.vstack(rows),
        b_ub=np.asarray(bounds),
        variable_names=var_names,
    )


def reference_task_program(
    shuffle_bytes: Mapping[str, float], problem: PlacementProblem
) -> LinearProgram:
    sites = problem.site_names
    var_names = ["t"] + [f"r[{site}]" for site in sites]
    num_vars = len(var_names)
    total_volume = sum(shuffle_bytes.get(site, 0.0) for site in sites)
    rows: List[np.ndarray] = []
    bounds: List[float] = []
    for position, site in enumerate(sites):
        f_i = shuffle_bytes.get(site, 0.0)
        row = np.zeros(num_vars)
        row[0] = -1.0
        row[1 + position] = -f_i / problem.U(site)
        rows.append(row)
        bounds.append(-f_i / problem.U(site))
        inbound = sum(
            shuffle_bytes.get(other, 0.0) for other in sites if other != site
        )
        row = np.zeros(num_vars)
        row[0] = -1.0
        row[1 + position] = inbound / problem.D(site)
        rows.append(row)
        bounds.append(0.0)
        compute_rate = problem.compute_bps.get(site)
        if compute_rate and total_volume > 0:
            row = np.zeros(num_vars)
            row[0] = -1.0
            row[1 + position] = total_volume / compute_rate
            rows.append(row)
            bounds.append(0.0)
    equality = np.zeros((1, num_vars))
    equality[0, 1:] = 1.0
    objective = np.zeros(num_vars)
    objective[0] = 1.0
    return LinearProgram(
        c=objective,
        a_ub=np.vstack(rows),
        b_ub=np.asarray(bounds),
        a_eq=equality,
        b_eq=np.asarray([1.0]),
        variable_names=var_names,
    )


def reference_solve(program: LinearProgram) -> LpSolution:
    result = linprog(
        c=program.c,
        A_ub=program.a_ub,
        b_ub=program.b_ub,
        A_eq=program.a_eq,
        b_eq=program.b_eq,
        bounds=(0, None),
        method="highs",
    )
    assert result.success, result.message
    x = np.asarray(result.x, dtype=float)
    return LpSolution(
        x=x,
        objective=float(result.fun),
        solve_seconds=0.0,
        backend="scipy",
        basis_names=[
            name for name, value in zip(program.variable_names, x) if value > 1e-12
        ],
    )


def reference_solve_data_lp(problem, reduce_fractions, backend="auto", template=None):
    program = reference_data_program(problem, reduce_fractions)
    solution = reference_solve(program)
    sites = problem.site_names
    pairs = [(i, j) for i in sites for j in sites if i != j]
    index_of = {name: position for position, name in enumerate(program.variable_names)}
    moves = {}
    for a in problem.dataset_ids:
        for (i, j) in pairs:
            volume = float(solution.x[index_of[f"x[{a}][{i}->{j}]"]])
            if volume > _EPS_BYTES:
                moves[(a, i, j)] = volume
    return moves, float(solution.x[0]), solution


def reference_solve_task_lp(shuffle_bytes, problem, backend="auto", warm_names=None):
    solution = reference_solve(reference_task_program(shuffle_bytes, problem))
    sites = problem.site_names
    fractions = {
        site: max(0.0, float(solution.x[1 + position]))
        for position, site in enumerate(sites)
    }
    total = sum(fractions.values())
    fractions = {site: value / total for site, value in fractions.items()}
    return fractions, float(solution.x[0]), solution


# -- problem generators ----------------------------------------------------


def random_problem(rng: random.Random, num_sites: int, num_datasets: int) -> PlacementProblem:
    names = [f"s{index}" for index in range(num_sites)]
    topology = WanTopology.from_sites(
        [
            Site(
                name,
                uplink_bps=rng.choice([1e6, 2.5e6, 1e7, 3.3e7]) * rng.uniform(0.5, 2),
                downlink_bps=rng.choice([1e6, 5e6, 2e7]) * rng.uniform(0.5, 2),
            )
            for name in names
        ]
    )
    datasets = [f"d{index}" for index in range(num_datasets)]
    input_bytes: Dict[str, Dict[str, float]] = {}
    similarity: Dict[str, Dict[str, float]] = {}
    mobility: Dict = {}
    cross: Dict = {}
    for dataset in datasets:
        per_site = {}
        for name in names:
            roll = rng.random()
            if roll < 0.15:
                continue  # absent: zero input at this site
            per_site[name] = 0.0 if roll < 0.3 else rng.uniform(1e5, 5e9)
        input_bytes[dataset] = per_site
        similarity[dataset] = {
            name: rng.choice([0.0, rng.uniform(0, 0.95)])
            for name in names
            if rng.random() < 0.7
        }
        pairs = [(i, j) for i in names for j in names if i != j]
        mobility[dataset] = {
            pair: rng.choice([0.0, 1.0, rng.random(), rng.random()])
            for pair in pairs
            if rng.random() < 0.5
        }
        cross[dataset] = {
            pair: rng.choice([0.0, 1.0, rng.random()])
            for pair in pairs
            if rng.random() < 0.5
        }
    compute = {
        name: rng.uniform(1e6, 1e8) for name in names if rng.random() < 0.3
    }
    return PlacementProblem(
        topology=topology,
        input_bytes=input_bytes,
        reduction_ratio={
            dataset: rng.choice([1.0, rng.uniform(0.05, 1.0)]) for dataset in datasets
        },
        similarity=similarity,
        lag_seconds=rng.choice([30.0, 600.0, 3600.0]),
        mobility=mobility,
        cross_similarity=cross,
        compute_bps=compute,
    )


def random_fractions(rng: random.Random, sites: List[str]) -> List[Dict[str, float]]:
    weights = [rng.random() for _ in sites]
    total = sum(weights)
    uniform = {site: 1.0 / len(sites) for site in sites}
    one_hot = {site: (1.0 if site == sites[-1] else 0.0) for site in sites}
    partial = {site: rng.random() for site in sites[: len(sites) // 2]}
    return [
        {site: weight / total for site, weight in zip(sites, weights)},
        uniform,
        one_hot,
        partial,  # sites missing from the mapping have r_i = 0
        {},
    ]


def problems():
    rng = random.Random(20181204)
    shapes = [(2, 1), (2, 3), (3, 1), (4, 2), (5, 4), (10, 3)]
    for num_sites, num_datasets in shapes:
        for _ in range(4):
            yield rng, random_problem(rng, num_sites, num_datasets)


def ec2_problem(seed: int) -> PlacementProblem:
    rng = random.Random(seed)
    topology = ec2_ten_sites()
    sites = topology.site_names
    datasets = ["d0", "d1", "d2"]
    return PlacementProblem(
        topology=topology,
        input_bytes={
            a: {site: rng.uniform(1e7, 4e8) for site in sites} for a in datasets
        },
        reduction_ratio={a: 0.55 for a in datasets},
        similarity={a: {site: rng.uniform(0, 0.6) for site in sites} for a in datasets},
        lag_seconds=600.0,
        mobility={
            a: {(i, j): rng.uniform(0.1, 1.0) for i in sites for j in sites if i != j}
            for a in datasets
        },
        cross_similarity={
            a: {(i, j): rng.uniform(0, 0.7) for i in sites for j in sites if i != j}
            for a in datasets
        },
    )


def bits(array) -> bytes:
    return np.ascontiguousarray(np.asarray(array, dtype=float)).tobytes()


def assert_same_program(ours: LinearProgram, theirs: LinearProgram) -> None:
    assert ours.variable_names == theirs.variable_names
    for field in ("c", "a_ub", "b_ub", "a_eq", "b_eq"):
        mine, ref = getattr(ours, field), getattr(theirs, field)
        if ref is None:
            assert mine is None, field
            continue
        assert mine.shape == ref.shape, field
        assert np.array_equal(mine, ref), field
        # Signed zeros too: the arrays must be the same bytes.
        assert bits(mine) == bits(ref), field


# -- (a) builders ----------------------------------------------------------


class TestBuilderParity:
    def test_data_lp_matches_row_by_row_reference(self):
        checked = with_caps = 0
        for rng, problem in problems():
            template = DataLpTemplate(problem)
            # One template serves every r in turn, as in a plan.
            for fractions in random_fractions(rng, problem.site_names):
                program = template.program(fractions)
                assert_same_program(
                    program, reference_data_program(problem, fractions)
                )
                num_sites = len(problem.site_names)
                with_caps += program.a_ub.shape[0] > num_sites * (
                    4 + len(problem.dataset_ids)
                )
                checked += 1
        assert checked == 6 * 4 * 5
        assert with_caps > 0

    def test_task_lp_matches_row_by_row_reference(self, monkeypatch):
        captured = []
        import repro.placement.lp as lp_mod

        def capture(program, backend="auto", warm_names=None):
            captured.append(program)
            return solve_lp(program, backend=backend, warm_names=warm_names)

        monkeypatch.setattr(lp_mod, "solve_lp", capture)
        checked = with_compute_rows = 0
        for rng, problem in problems():
            sites = problem.site_names
            moves_free = shuffle_bytes_after_moves(problem, {})
            cases = [
                moves_free,
                {site: rng.uniform(0, 1e9) for site in sites},
                {sites[0]: 5e8},  # other sites absent: F_i = 0
                {site: 0.0 for site in sites},  # no volume: no compute rows
            ]
            for volumes in cases:
                captured.clear()
                try:
                    solve_task_lp(volumes, problem)
                except PlacementError:  # all-zero fractions: the LP was built
                    pass
                assert_same_program(
                    captured[-1], reference_task_program(volumes, problem)
                )
                with_compute_rows += captured[-1].a_ub.shape[0] > 2 * len(sites)
                checked += 1
        assert checked == 6 * 4 * 4
        assert with_compute_rows > 0


# -- (b) direct HiGHS call -------------------------------------------------


def random_lp(rng: np.random.Generator) -> LinearProgram:
    """A feasible, bounded LP: b is set from a known point x0 >= 0."""
    num_rows, num_vars = int(rng.integers(2, 30)), int(rng.integers(2, 30))
    a_ub = rng.normal(size=(num_rows, num_vars)) * (rng.random((num_rows, num_vars)) < 0.5)
    # A cap on the variables' sum keeps every LP bounded.
    a_ub = np.vstack([a_ub, np.ones((1, num_vars))])
    x0 = rng.random(num_vars) * (rng.random(num_vars) < 0.6)
    b_ub = a_ub @ x0 + rng.random(num_rows + 1) * rng.choice([0.0, 1.0, 10.0])
    a_eq = b_eq = None
    if rng.random() < 0.4:
        a_eq = (rng.random((1, num_vars)) < 0.7).astype(float)
        a_eq[0, 0] = 1.0
        b_eq = a_eq @ x0
    return LinearProgram(
        c=rng.normal(size=num_vars), a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq
    )


def assert_same_solution(program: LinearProgram) -> None:
    ours = solve_lp(program, backend="scipy")
    theirs = reference_solve(program)
    assert ours.backend == "scipy"
    assert bits(ours.x) == bits(theirs.x)
    assert ours.objective == theirs.objective  # bit-identical, not approx
    assert ours.basis_names == theirs.basis_names


class TestDirectHighsParity:
    def test_random_lps_match_linprog(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            assert_same_solution(random_lp(rng))

    def test_placement_lps_match_linprog(self):
        for seed in (1, 2):
            problem = ec2_problem(seed)
            rng = random.Random(seed)
            for fractions in random_fractions(rng, problem.site_names):
                assert_same_solution(DataLpTemplate(problem).program(fractions))
                volumes = {
                    site: rng.uniform(1e6, 1e9) for site in problem.site_names
                }
                assert_same_solution(reference_task_program(volumes, problem))
        for rng, problem in list(problems())[::3]:
            for fractions in random_fractions(rng, problem.site_names)[:2]:
                assert_same_solution(DataLpTemplate(problem).program(fractions))

    def test_csc_arrays_match_scipy_sparse(self):
        from scipy.sparse import csc_array

        from repro.placement.solver import _csc_arrays

        rng = np.random.default_rng(7)
        for _ in range(50):
            dense = rng.normal(size=(int(rng.integers(1, 40)), int(rng.integers(1, 40))))
            dense[rng.random(dense.shape) < 0.6] = 0.0
            dense[rng.random(dense.shape) < 0.05] = -0.0
            split = int(rng.integers(0, dense.shape[0] + 1))
            start, index, value = _csc_arrays(dense[:split], dense[split:])
            reference = csc_array(dense)
            assert np.array_equal(start, reference.indptr)
            assert np.array_equal(index, reference.indices)
            assert bits(value) == bits(reference.data)

    def test_infeasible_and_unbounded_raise(self):
        infeasible = LinearProgram(
            c=np.array([1.0]), a_ub=np.array([[1.0]]), b_ub=np.array([-1.0])
        )
        unbounded = LinearProgram(
            c=np.array([-1.0, 0.0]),
            a_ub=np.array([[0.0, 1.0]]),
            b_ub=np.array([1.0]),
        )
        for program in (infeasible, unbounded):
            assert not linprog(
                program.c, A_ub=program.a_ub, b_ub=program.b_ub,
                bounds=(0, None), method="highs",
            ).success
            with pytest.raises(SolverError):
                solve_lp(program, backend="scipy")

    def test_missing_binding_behaves_like_missing_scipy(self, monkeypatch):
        from repro.placement.solver import SCIPY_REQUIREMENT

        program = random_lp(np.random.default_rng(3))
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy", None)
        fallback = solve_lp(program, backend="auto")
        assert fallback.backend == "simplex"
        with pytest.raises(SolverError, match="is not installed") as raised:
            solve_lp(program, backend="scipy")
        assert SCIPY_REQUIREMENT in str(raised.value)

    def test_requirement_matches_the_dependency_floor(self):
        import pathlib

        from repro.placement.solver import SCIPY_REQUIREMENT

        pyproject = pathlib.Path(__file__).resolve().parents[2] / "pyproject.toml"
        floor = next(
            line.strip().strip('",')
            for line in pyproject.read_text().splitlines()
            if line.strip().startswith('"scipy')
        )
        assert SCIPY_REQUIREMENT.startswith(floor + " ")

    def test_equality_only_program(self):
        program = LinearProgram(
            c=np.array([1.0, 2.0]), a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0])
        )
        assert_same_solution(program)


# -- (c) planners ----------------------------------------------------------


def reference_path(monkeypatch) -> None:
    monkeypatch.setattr(joint_mod, "solve_data_lp", reference_solve_data_lp)
    monkeypatch.setattr(joint_mod, "solve_task_lp", reference_solve_task_lp)
    monkeypatch.setattr(iridium_mod, "solve_task_lp", reference_solve_task_lp)


def decision_fields(decision):
    return (
        list(decision.moves.items()),
        list(decision.reduce_fractions.items()),
        decision.estimated_shuffle_seconds,
        decision.iterations,
        decision.task_basis,
    )


class TestPlannerParity:
    def planner_problems(self):
        cases = [ec2_problem(seed) for seed in (1, 4)]
        cases += [problem for _, problem in list(problems())[1::5]]
        return cases

    def test_joint_and_iridium_decisions_identical(self, monkeypatch):
        cases = self.planner_problems()
        fast = [
            (JointPlanner().plan(problem), IridiumPlanner().plan(problem))
            for problem in cases
        ]
        reference_path(monkeypatch)
        for problem, (joint, heuristic) in zip(cases, fast):
            assert decision_fields(joint) == decision_fields(JointPlanner().plan(problem))
            assert decision_fields(heuristic) == decision_fields(
                IridiumPlanner().plan(problem)
            )

    def test_solve_data_lp_without_template(self):
        problem = ec2_problem(2)
        fractions = {site: 0.1 for site in problem.site_names}
        template = DataLpTemplate(problem)
        with_template = solve_data_lp(problem, fractions, template=template)
        without = solve_data_lp(problem, fractions)
        reference = reference_solve_data_lp(problem, fractions)
        assert list(with_template[0].items()) == list(reference[0].items())
        assert list(without[0].items()) == list(reference[0].items())
        assert with_template[1] == without[1] == reference[1]


# -- import cost -----------------------------------------------------------


def test_import_leaves_scipy_optimize_unloaded():
    """``import repro`` must not pay for the HiGHS binding's import."""
    import repro

    code = (
        "import sys, repro, repro.placement; "
        "print('scipy.optimize' in sys.modules)"
    )
    env = dict(os.environ)
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (source_root, env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert result.stdout.strip() == "False"
