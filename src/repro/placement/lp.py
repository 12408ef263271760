"""The placement linear programs (equations (2)–(7)).

The full joint problem couples the bilinear terms :math:`r_i \\cdot
x^a_{i,j}`, so it is solved by alternating two exact LPs:

- :func:`solve_data_lp` — optimal data movement :math:`x^a_{i,j}` for a
  *fixed* task placement :math:`r` (constraints (3)–(6) plus the implicit
  bound that a site cannot move out more than it holds);
- :func:`solve_task_lp` — optimal task placement :math:`r` for *fixed*
  per-site shuffle volumes :math:`F_i` (constraints (3), (4), (7)).

Both minimize the same t, so alternation monotonically improves the
objective; :class:`~repro.placement.joint.JointPlanner` drives it to a
fixed point.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import PlacementError
from repro.placement.model import PlacementProblem
from repro.placement.solver import LinearProgram, LpSolution, solve_lp

#: A data movement decision: (dataset, src_site, dst_site) -> bytes.
Moves = Dict[Tuple[str, str, str], float]

_EPS_BYTES = 1e-6


class DataLpTemplate:
    """The r-independent part of one problem's data LP, built once.

    Every data LP of a :class:`PlacementProblem` has the same variables
    and the same rows; only rows (3) and (4) and their constants depend
    on the reduce fractions r.  The template holds the R, S, S_ij, I, U
    and D arrays, the variable names and a dense matrix whose rows (5),
    (6), holdings and mobility caps are filled once; :meth:`program`
    copies it and fills rows (3) and (4).

    The rows and every float match a row-by-row assembly bit for bit:
    coefficients are ``(R (1 - S)) * scale``, a variable that two
    ``f`` terms touch gets one two-term sum, and each constant is
    ``0.0 - v_1 - v_2 - ...`` folded left to right.
    """

    def __init__(self, problem: PlacementProblem) -> None:
        sites = problem.site_names
        datasets = problem.dataset_ids
        num_sites = len(sites)
        pairs = [(i, j) for i in sites for j in sites if i != j]
        position = {site: index for index, site in enumerate(sites)}
        src = np.array([position[i] for i, _ in pairs], dtype=np.intp)
        dst = np.array([position[j] for _, j in pairs], dtype=np.intp)
        self.site_names = sites
        self.variable_names = ["t"] + [
            f"x[{a}][{i}->{j}]" for a in datasets for (i, j) in pairs
        ]
        self.move_keys = [(a, i, j) for a in datasets for (i, j) in pairs]
        num_vars = len(self.variable_names)
        #: columns[a, p]: the variable x^a on pair p.
        columns = 1 + np.arange(len(datasets) * len(pairs)).reshape(
            len(datasets), len(pairs)
        )

        ratio = np.array([problem.R(a) for a in datasets], dtype=float)
        local = np.array(
            [[problem.S(a, site) for site in sites] for a in datasets], dtype=float
        )
        cross = np.array(
            [[problem.Sij(a, i, j) for (i, j) in pairs] for a in datasets],
            dtype=float,
        )
        self._holdings = np.array(
            [[problem.I(a, site) for site in sites] for a in datasets], dtype=float
        )
        self._uplink = np.array([problem.U(site) for site in sites], dtype=float)
        self._downlink = np.array([problem.D(site) for site in sites], dtype=float)
        #: R^a (1 - S_i^a) per (dataset, site) and per (dataset, pair source).
        self._local_rate = ratio[:, None] * (1.0 - local)
        self._src_local_rate = self._local_rate[:, src]
        #: R^a (1 - S^a_{i,j}) per (dataset, pair).
        self._pair_rate = ratio[:, None] * (1.0 - cross)
        self._src, self._dst, self._columns = src, dst, columns
        #: Row (4) of site i: pairs leaving i carry no outflow term and
        #: pairs entering i no inflow term.
        self._leaves = (src[None, :] == np.arange(num_sites)[:, None])[:, None, :]
        self._enters = (dst[None, :] == np.arange(num_sites)[:, None])[:, None, :]
        #: Row (4)'s constant of site i folds over (dataset, j != i).
        flat = np.arange(len(datasets) * num_sites).reshape(len(datasets), num_sites)
        self._others = np.array(
            [flat[:, np.arange(num_sites) != i].ravel() for i in range(num_sites)],
            dtype=np.intp,
        )

        rows: List[Tuple[np.ndarray, float]] = []
        row3 = np.empty(num_sites, dtype=np.intp)
        for i_pos, i in enumerate(sites):
            row3[i_pos] = len(rows)
            rows.append((np.empty(0, dtype=np.intp), 0.0))  # (3), per call
            rows.append((np.empty(0, dtype=np.intp), 0.0))  # (4), per call
            outgoing = columns[:, src == i_pos]
            # (5) and (6): data movement upload / download within the lag.
            rows.append((outgoing.ravel(), problem.lag_seconds * problem.U(i)))
            rows.append(
                (columns[:, dst == i_pos].ravel(), problem.lag_seconds * problem.D(i))
            )
            # Cannot move out more than the site holds.
            for a_pos, a in enumerate(datasets):
                rows.append((outgoing[a_pos], problem.I(a, i)))
            # Similarity-aware mobility caps: only the absorbable fraction
            # of a site's data may move toward each destination.
            destinations = [j for j in sites if j != i]
            for a_pos, a in enumerate(datasets):
                for j, column in zip(destinations, outgoing[a_pos]):
                    cap = problem.mobility_cap(a, i, j)
                    if cap < 1.0:
                        rows.append((column, problem.I(a, i) * cap))
        self._row3 = row3
        self._row4 = row3 + 1
        self._a_ub = np.zeros((len(rows), num_vars))
        self._b_ub = np.zeros(len(rows))
        for row, (row_columns, bound) in enumerate(rows):
            self._a_ub[row, row_columns] = 1.0
            self._b_ub[row] = bound
        self._a_ub[self._row3, 0] = -1.0
        self._a_ub[self._row4, 0] = -1.0
        self._objective = np.zeros(num_vars)
        self._objective[0] = 1.0

    def program(self, reduce_fractions: Mapping[str, float]) -> LinearProgram:
        """The data LP for fixed reduce fractions r."""
        r = np.array(
            [reduce_fractions.get(site, 0.0) for site in self.site_names],
            dtype=float,
        )
        upload_scale = (1.0 - r) / self._uplink
        download_scale = r / self._downlink
        a_ub = self._a_ub.copy()
        b_ub = self._b_ub.copy()

        # (3): upload time of shuffle data at i.  f_i^a loses its local
        # rate on every x^a_{i,j} and gains the pair rate on x^a_{j,i}.
        a_ub[self._row3[self._src], self._columns] = 0.0 - (
            self._src_local_rate * upload_scale[self._src]
        )
        a_ub[self._row3[self._dst], self._columns] = 0.0 + (
            self._pair_rate * upload_scale[self._dst]
        )
        b_ub[self._row3] = _fold_negated(
            ((self._local_rate * upload_scale) * self._holdings).T
        )

        # (4): download time of shuffle data at i, the sum of f_j^a over
        # j != i: x^a_{j,k} gets -local(j) + pair(j, k), less the term
        # whose f site is i itself.
        outflow = self._src_local_rate[None] * download_scale[:, None, None]
        inflow = self._pair_rate[None] * download_scale[:, None, None]
        block = (0.0 - np.where(self._leaves, 0.0, outflow)) + np.where(
            self._enters, 0.0, inflow
        )
        a_ub[self._row4, 1:] = block.reshape(len(self.site_names), -1)
        terms = (self._local_rate[None] * download_scale[:, None, None]) * (
            self._holdings[None]
        )
        b_ub[self._row4] = _fold_negated(
            np.take_along_axis(
                terms.reshape(len(self.site_names), -1), self._others, axis=1
            )
        )
        return LinearProgram(
            c=self._objective.copy(),
            a_ub=a_ub,
            b_ub=b_ub,
            variable_names=self.variable_names,
        )


def _fold_negated(terms: np.ndarray) -> np.ndarray:
    """``0.0 - t[0] - t[1] - ...`` along the last axis, left to right."""
    padded = np.zeros(terms.shape[:-1] + (terms.shape[-1] + 1,))
    padded[..., 1:] = terms
    return np.subtract.accumulate(padded, axis=-1)[..., -1]


def solve_data_lp(
    problem: PlacementProblem,
    reduce_fractions: Mapping[str, float],
    backend: str = "auto",
    template: Optional[DataLpTemplate] = None,
) -> Tuple[Moves, float, LpSolution]:
    """Optimal data movement given fixed reduce fractions.

    Returns ``(moves, t, solution)`` where t is the optimized shuffle
    time bound of equation (2).  ``template`` is the problem's
    :class:`DataLpTemplate`; a caller that solves many data LPs of one
    problem builds it once and passes it in.
    """
    if template is None:
        template = DataLpTemplate(problem)
    solution = solve_lp(template.program(reduce_fractions), backend=backend)
    volumes = solution.x.tolist()
    moves: Moves = {
        template.move_keys[index]: volumes[index + 1]
        for index in np.flatnonzero(solution.x[1:] > _EPS_BYTES).tolist()
    }
    return moves, volumes[0], solution


def solve_task_lp(
    shuffle_bytes: Mapping[str, float],
    problem: PlacementProblem,
    backend: str = "auto",
    warm_names: "Optional[List[str]]" = None,
) -> Tuple[Dict[str, float], float, LpSolution]:
    """Optimal reduce fractions given fixed per-site shuffle volumes F_i.

    Returns ``(reduce_fractions, t, solution)``.  ``warm_names`` seeds
    the simplex backend's starting basis — pass an incumbent solution's
    ``basis_names`` (e.g. restricted to surviving sites on a degraded
    replan); names absent from this program's variables are ignored.
    """
    sites = problem.site_names
    missing = set(shuffle_bytes) - set(sites)
    if missing:
        raise PlacementError(f"shuffle bytes reference unknown sites {sorted(missing)}")
    num_sites = len(sites)
    volumes = [shuffle_bytes.get(site, 0.0) for site in sites]
    total_volume = sum(volumes)
    # sum() per site, not total - F_i: the same fold as summing the others.
    inbound = [
        sum(volume for other, volume in enumerate(volumes) if other != position)
        for position in range(num_sites)
    ]
    uplink = np.array([problem.U(site) for site in sites], dtype=float)
    downlink = np.array([problem.D(site) for site in sites], dtype=float)
    # Compute-constraint extension: reduce-processing time at i,
    # r_i * (total intermediate) / C_i <= t, when C_i is known.
    compute = [
        (position, rate)
        for position, rate in enumerate(map(problem.compute_bps.get, sites))
        if rate and total_volume > 0
    ]
    positions = np.array([position for position, _ in compute], dtype=np.intp)
    # Per site: (3), (4), then the compute row if it has one.
    rows_per_site = np.full(num_sites, 2, dtype=np.intp)
    rows_per_site[positions] += 1
    row3 = np.cumsum(rows_per_site) - rows_per_site
    site_columns = 1 + np.arange(num_sites)

    a_ub = np.zeros((int(rows_per_site.sum()), 1 + num_sites))
    b_ub = np.zeros(a_ub.shape[0])
    a_ub[:, 0] = -1.0
    # (3): (1 - r_i) F_i / U_i <= t
    upload = -np.array(volumes, dtype=float) / uplink
    a_ub[row3, site_columns] = upload
    b_ub[row3] = upload
    # (4): r_i * sum_{j != i} F_j / D_i <= t
    a_ub[row3 + 1, site_columns] = np.array(inbound, dtype=float) / downlink
    if compute:
        a_ub[row3[positions] + 2, 1 + positions] = total_volume / np.array(
            [rate for _, rate in compute], dtype=float
        )

    equality = np.ones((1, 1 + num_sites))
    equality[0, 0] = 0.0
    objective = np.zeros(1 + num_sites)
    objective[0] = 1.0
    program = LinearProgram(
        c=objective,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=equality,
        b_eq=np.asarray([1.0]),
        variable_names=["t"] + [f"r[{site}]" for site in sites],
    )
    solution = solve_lp(program, backend=backend, warm_names=warm_names)
    fractions = {
        site: max(0.0, float(solution.x[1 + position]))
        for position, site in enumerate(sites)
    }
    total = sum(fractions.values())
    if total <= 0:
        raise PlacementError("task LP returned all-zero fractions")
    fractions = {site: value / total for site, value in fractions.items()}
    return fractions, float(solution.x[0]), solution


def shuffle_bytes_after_moves(problem: PlacementProblem, moves: Moves) -> Dict[str, float]:
    """Per-site total shuffle volume F_i = sum_a f_i^a(x) given moves."""
    totals: Dict[str, float] = {site: 0.0 for site in problem.site_names}
    for a in problem.dataset_ids:
        per_dataset = {
            (src, dst): volume
            for (dataset, src, dst), volume in moves.items()
            if dataset == a
        }
        for site in problem.site_names:
            totals[site] += problem.shuffle_bytes(a, site, per_dataset)
    return totals
