"""LP solving front-end: HiGHS (bundled with scipy) with a pure-Python
simplex fallback.

All placement LPs flow through :func:`solve_lp`, which also times the
solve — those timings are what Table 5 reports.  The ``scipy`` backend
calls scipy's HiGHS binding directly, with the problem and options
``linprog(method="highs")`` would pass, so it returns the same ``x`` and
objective bit for bit without ``linprog``'s per-call wrapper cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import SolverError
from repro.obs import instrument
from repro.placement.simplex import simplex_solve


@dataclass
class LinearProgram:
    """min c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0."""

    c: np.ndarray
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    variable_names: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        if self.variable_names and len(self.variable_names) != self.c.shape[0]:
            raise SolverError("variable_names length must match c")

    @property
    def num_variables(self) -> int:
        return int(self.c.shape[0])


@dataclass
class LpSolution:
    """Solved LP with timing."""

    x: np.ndarray
    objective: float
    solve_seconds: float
    backend: str
    #: Structural variables usable as a warm-start hint for a related
    #: solve: the final simplex basis (simplex backend) or the solution
    #: support (scipy backend, whose HiGHS basis is not read back: only
    #: the simplex backend takes a warm start).
    basis_names: List[str] = field(default_factory=list)
    #: True when the simplex backend started from a feasible warm basis.
    warm_started: bool = False

    def value_of(self, program: LinearProgram, name: str) -> float:
        try:
            index = program.variable_names.index(name)
        except ValueError:
            raise SolverError(f"unknown variable {name!r}") from None
        return float(self.x[index])


def solve_lp(
    program: LinearProgram,
    backend: str = "auto",
    warm_names: Optional[List[str]] = None,
) -> LpSolution:
    """Solve the LP; ``backend`` is ``"auto"``, ``"scipy"`` or ``"simplex"``.

    ``auto`` prefers scipy's HiGHS and silently falls back to the built-in
    simplex if scipy or its HiGHS binding is unavailable.  Raises
    :class:`SolverError` on infeasible or unbounded problems.
    ``warm_names`` hints variables (by name) whose columns should seed the
    simplex backend's starting basis — e.g. the ``basis_names`` of an
    incumbent solution to a related program; names the program does not
    define are ignored, and the scipy backend has no warm-start surface
    so the hint is a no-op there.
    """
    if backend not in ("auto", "scipy", "simplex"):
        raise SolverError(f"unknown backend {backend!r}")
    obs = instrument.current()
    with obs.tracer.span(
        "lp-solve", stage="placement", variables=program.num_variables
    ) as span:
        solution = _solve(program, backend, warm_names)
    if span is not None:
        span.attrs["backend"] = solution.backend
        span.attrs["objective"] = solution.objective
    if obs.metrics.enabled:
        obs.metrics.counter("lp_solves", backend=solution.backend).inc()
        obs.metrics.histogram("lp_solve_seconds").observe(solution.solve_seconds)
        obs.metrics.gauge("lp_variables").set(program.num_variables)
        if solution.warm_started:
            obs.metrics.counter("lp_warm_starts").inc()
    return solution


#: What the ``scipy`` backend needs: the ``scipy.optimize._highspy``
#: HiGHS binding (kept in step with the floor in pyproject.toml).
SCIPY_REQUIREMENT = "scipy>=1.17.1 (scipy.optimize._highspy)"

#: linprog's feasibility tolerance on a returned solution:
#: ``sqrt(tol) * 10`` with its default ``tol`` of 1e-9.
_RESIDUAL_TOLERANCE = float(np.sqrt(1e-9) * 10)


def _solve(
    program: LinearProgram,
    backend: str,
    warm_names: Optional[List[str]] = None,
) -> LpSolution:
    # Wall-clock on purpose: LP solve cost reported by Table 5.
    started = time.perf_counter()  # lint: allow[R001]
    names = program.variable_names
    if backend in ("auto", "scipy"):
        try:
            # Imported here, not at module level: loading scipy.optimize
            # costs ~0.6 s that runs which never solve an LP do not pay.
            from scipy.optimize._highspy import _core as highs
        except ImportError:
            if backend == "scipy":
                raise SolverError(f"{SCIPY_REQUIREMENT} is not installed") from None
            highs = None
        if highs is not None:
            x, objective = _highs_solve(highs, program)
            return LpSolution(
                x=x,
                objective=objective,
                solve_seconds=time.perf_counter() - started,  # lint: allow[R001]
                backend="scipy",
                basis_names=(
                    [name for name, value in zip(names, x.tolist()) if value > 1e-12]
                    if names
                    else []
                ),
            )
    warm_columns = None
    if warm_names and names:
        index_of = {name: position for position, name in enumerate(names)}
        warm_columns = [
            index_of[name] for name in warm_names if name in index_of
        ]
    result = simplex_solve(
        program.c,
        program.a_ub,
        program.b_ub,
        program.a_eq,
        program.b_eq,
        warm_columns=warm_columns,
    )
    if not result.ok:
        raise SolverError(f"simplex failed: {result.status}")
    num_vars = program.num_variables
    return LpSolution(
        x=result.x,
        objective=result.objective,
        solve_seconds=time.perf_counter() - started,  # lint: allow[R001]
        backend="simplex",
        basis_names=(
            [
                names[column]
                for column in result.basis_columns
                if column < num_vars
            ]
            if names
            else []
        ),
        warm_started=result.warm_started,
    )


def _highs_solve(highs, program: LinearProgram) -> Tuple[np.ndarray, float]:
    """Solve ``program`` with HiGHS as ``linprog(method="highs")`` does.

    HiGHS gets the same model: the dense ``[A_ub; A_eq]`` as the CSC
    arrays ``scipy.sparse.csc_array`` builds, row bounds ``(-inf, b_ub]``
    and ``[b_eq, b_eq]``, and column bounds ``[0, inf)``.  It gets the
    same effective options: presolve on, dual simplex, debug level none,
    output and console logging off.  A solution is accepted as linprog
    accepts it: HiGHS must report optimal, and the solution must meet
    the constraints within linprog's residual tolerance.
    """
    num_vars = program.num_variables
    a_ub, b_ub = _rows(program.a_ub, program.b_ub, num_vars)
    a_eq, b_eq = _rows(program.a_eq, program.b_eq, num_vars)
    start, index, value = _csc_arrays(a_ub, a_eq)
    num_rows = b_ub.shape[0] + b_eq.shape[0]

    # Lists, not arrays: the binding copies a list into its vectors
    # about twice as fast as it walks a NumPy array.
    lp = highs.HighsLp()
    lp.num_col_ = num_vars
    lp.num_row_ = num_rows
    lp.a_matrix_.num_col_ = num_vars
    lp.a_matrix_.num_row_ = num_rows
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.col_cost_ = program.c.tolist()
    lp.col_lower_ = [0.0] * num_vars
    lp.col_upper_ = [np.inf] * num_vars
    lp.row_lower_ = [-np.inf] * b_ub.shape[0] + b_eq.tolist()
    lp.row_upper_ = b_ub.tolist() + b_eq.tolist()
    lp.a_matrix_.start_ = start.tolist()
    lp.a_matrix_.index_ = index.tolist()
    lp.a_matrix_.value_ = value.tolist()

    solver = highs._Highs()
    for option, setting in (
        ("presolve", "on"),
        ("highs_debug_level", highs.HighsDebugLevel.kHighsDebugLevelNone),
        ("log_to_console", False),
        ("output_flag", False),
        ("simplex_strategy", highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
    ):
        if solver.setOptionValue(option, setting) != highs.HighsStatus.kOk:
            raise SolverError(f"HiGHS rejected option {option}={setting!r}")
    if solver.passModel(lp) == highs.HighsStatus.kError:
        raise SolverError("HiGHS rejected the model")
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise SolverError(f"HiGHS failed: {solver.modelStatusToString(status)}")
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    objective = solver.getInfo().objective_function_value
    row_value = np.array(solution.row_value)
    num_ub = b_ub.shape[0]
    tolerance = _RESIDUAL_TOLERANCE
    # Each comparison is False on a NaN, which linprog rejects too.
    if not (
        objective == objective
        and (x >= -tolerance).all()
        and (b_ub - row_value[:num_ub] >= -tolerance).all()
        and (np.abs(b_eq - row_value[num_ub:]) <= tolerance).all()
    ):
        raise SolverError(
            f"HiGHS solution misses the constraints by more than {tolerance:.2e}"
        )
    return x, float(objective)


def _rows(
    matrix: Optional[np.ndarray], bounds: Optional[np.ndarray], num_vars: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One constraint block as float arrays; absent blocks have no rows."""
    if matrix is None:
        return np.zeros((0, num_vars)), np.zeros(0)
    return (
        np.asarray(matrix, dtype=float).reshape(-1, num_vars),
        np.asarray(bounds, dtype=float).reshape(-1),
    )


def _csc_arrays(*blocks: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, data)`` of ``scipy.sparse.csc_array`` of the
    blocks stacked vertically.

    Column-major nonzeros with row indices ascending in each column and
    explicit zeros dropped, in int32 index arrays.
    """
    # One row per column of the stacked matrix, C-contiguous.
    by_column = np.concatenate([block.T for block in blocks], axis=1)
    num_cols, num_rows = by_column.shape
    flat = np.flatnonzero(by_column != 0)  # a bool scan is ~6x a float one
    start = np.zeros(num_cols + 1, dtype=np.int32)
    if num_rows:
        np.cumsum(np.bincount(flat // num_rows, minlength=num_cols), out=start[1:])
        index = (flat % num_rows).astype(np.int32)
    else:
        index = np.zeros(0, dtype=np.int32)
    return start, index, by_column.ravel()[flat]
