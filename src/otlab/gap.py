"""Double-indexed map family and the truncated-cost gap demonstration.

A grid of interval permutations tau_{n,j} (1 <= n <= j): row n is seeded
at column n by the inverse of the outward shuffle at scale n
(`tau.outward_shuffle`; a positive singular mass: the quasi-cost
vanishes on the long bulk runs and spikes to about m_n/(2*M_{n-1}) on
2*M_{n-1} sub-blocks per block), and each later column refines the row
by the keep-and-fill rule.  Every
cell is a mask-free `tau.TauLevel`, and the column step is
`tau.extend_tau`, which keeps and fills every block of such a cell.  The
limit maps behind the truncated costs are the deepest column of each
row; together with the identity and the one-step rotation they carry the
finite costs whose primal and dual values are exactly one at every
truncation, while the witness transports make the relaxed values
collapse in the limit.

The separation radius beta of a cheap partial plan (mass >= 2/3, cost
<= 1/2) is the largest radius inside which the plan has no completion.
The plan uses each row and each column at most once, so a completion is
a perfect matching of its free rows onto its free columns, and beta*M_j
is the bottleneck of that circular matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

import numpy as np

from .circle import ModulusTower, Runs, phi_level, quasi_cost_values
from .finite_ot import CostMatrix, Marginals, solve_certified
# Unused here, but perfbench/bench_trace.py wraps gap.solve_primal for --trace 1.
from .finite_ot import solve_primal  # noqa: F401
from .rational import format_rational
from .tau import (
    GrowthTooSmall,
    TauLevel,
    _tiles,
    extend_tau,
    outward_shuffle,
    sigma_of,
)

ZERO = Fraction(0)


class GraphOverlapInconsistency(Exception):
    """The same cell received two different clipped costs."""


def _invert(level: TauLevel, tower: ModulusTower) -> Runs:
    """Runs of the tau of the inverse map.  On a run of step t, sigma is
    the translation by t * P_n, so the inverse takes the run's image, a
    cyclic interval, back by the step -t; the reversed orbits keep the
    middle-avoidance of the forward ones."""
    if not _tiles(level, tower):
        raise GrowthTooSmall(f"diagonal seed at level {level.level} is not a permutation")
    r, M = level.tau_runs, level.modulus
    first = (r.starts + r.values.astype(np.int64) * tower.step(level.level)) % M
    wraps = first + r.lengths() > M  # an image that passes M - 1 goes on at 0
    starts = np.concatenate([first, np.zeros(np.count_nonzero(wraps), dtype=np.int64)])
    steps = -np.concatenate([r.values, r.values[wraps]])
    order = np.argsort(starts, kind="stable")
    return Runs.from_starts(starts[order], steps[order], M)


def _diagonal_seed(tower: ModulusTower, j: int) -> TauLevel:
    """Fresh row-j map: the inverse of the outward shuffle at scale j."""
    return TauLevel(j, _invert(TauLevel(j, outward_shuffle(tower, j)), tower))


@dataclass
class GapFamily:
    """All grid cells up to column j_max, plus per-row eta bookkeeping."""

    tower: ModulusTower
    j_max: int
    grid: Dict[Tuple[int, int], TauLevel]
    eta_closed: Dict[int, Fraction]

    def cell(self, n: int, j: int) -> TauLevel:
        return self.grid[(n, j)]

    def limit_tau(self, n: int):
        """Level-j_max tau of the n-th limit map (0: identity, 1: one
        rotation step, n >= 2: row n at the deepest column)."""
        M = self.tower.M[self.j_max - 1]
        if n == 0:
            return np.zeros(M, dtype=np.int32)
        if n == 1:
            return np.ones(M, dtype=np.int32)
        return self.grid[(n, self.j_max)].tau

    def limit_sigma(self, n: int):
        return sigma_of(self.tower, self.j_max, self.limit_tau(n))


def build_gap_family(tower: ModulusTower, j_max: int) -> GapFamily:
    if j_max < 1 or j_max > tower.depth:
        raise ValueError(f"j_max must be in 1..{tower.depth}")
    grid: Dict[Tuple[int, int], TauLevel] = {}
    eta_closed: Dict[int, Fraction] = {}
    for j in range(1, j_max + 1):
        for n in range(1, j):
            grid[(n, j)] = extend_tau(grid[(n, j - 1)], tower)
        grid[(j, j)] = _diagonal_seed(tower, j)
        M_prev = tower.M[j - 2] if j >= 2 else 1
        eta_closed[j] = Fraction(2 * M_prev + 1, tower.primes[j - 1])
    return GapFamily(tower=tower, j_max=j_max, grid=grid, eta_closed=eta_closed)


@dataclass
class RowReport:
    """Measure preservation, two-valued approximation and displacement
    of one grid cell."""

    row: int
    level: int
    permutation_ok: bool
    quasi_cost_mean_one: bool
    eta: Fraction
    two_valued_error: Fraction
    two_valued_target: Fraction
    displacement_max: Fraction
    displacement_bound: Fraction

    @property
    def displacement_ok(self) -> bool:
        return self.displacement_max < self.displacement_bound


def verify_row_map(family: GapFamily, n: int, j: int) -> RowReport:
    tower = family.tower
    cell = family.cell(n, j)
    M = cell.modulus
    sigma = sigma_of(tower, j, cell.tau)
    q = quasi_cost_values(phi_level(tower, j).values, sigma)
    mean_one = int(q.sum(dtype=np.int64)) == M

    eta = family.eta_closed[n]
    v = (1 - eta) / eta
    k = int(eta * M)  # integral by construction of the closed form
    fv = np.sort(q)[::-1]
    # best two-valued approximation: the spike value on the k largest
    # entries, zero elsewhere
    spike = fv[:k]
    rest = fv[k:]
    err = sum((abs(Fraction(int(x)) - v) for x in spike), ZERO) + Fraction(
        int(np.abs(rest).sum(dtype=np.int64))
    )
    approx_err = err / M

    d = (sigma - np.arange(M, dtype=np.int64)) % M
    disp = int(np.minimum(d, M - d).max())
    block = Fraction(M, tower.M[n - 2]) if n >= 2 else Fraction(M)

    return RowReport(
        row=n,
        level=j,
        permutation_ok=_tiles(cell, tower),
        quasi_cost_mean_one=mean_one,
        eta=eta,
        two_valued_error=approx_err,
        two_valued_target=Fraction(1, 2**n),
        displacement_max=Fraction(disp, M),
        displacement_bound=block / M,
    )


@dataclass
class TruncatedCost:
    """Clipped cost on the union of M+1 graphs, held by its finite arcs."""

    graph_count: int
    level: int
    cost: CostMatrix
    marginals: Marginals
    finite_cells: int


def materialize_cost(family: GapFamily, M_graphs: int, j: int) -> TruncatedCost:
    """M_j x M_j cost: clipped quasi-cost on the graphs of the identity,
    the one-step rotation and the limit maps 2..M_graphs; infinite
    elsewhere.  Only the (M_graphs+1)*M_j graph cells are built, a cell
    that two graphs share once."""
    if j != family.j_max:
        raise ValueError("costs are materialized at the deepest built column")
    if M_graphs < 1 or M_graphs > family.j_max:
        raise ValueError(f"M must be in 1..{family.j_max}")
    tower = family.tower
    Mj = tower.M[j - 1]
    phi = phi_level(tower, j).values
    sigmas = [family.limit_sigma(k) for k in range(M_graphs + 1)]
    targets = np.concatenate(sigmas)
    values = np.concatenate([np.maximum(quasi_cost_values(phi, s), 0) for s in sigmas])
    # Entry t is row t % Mj of graph t // Mj.  A stable sort by cell keeps
    # the graphs of a cell in order, so the first of each run of equal
    # cells is the graph that set it, and every later one must agree.
    cells = np.tile(np.arange(Mj, dtype=np.int64), M_graphs + 1) * Mj + targets
    order = np.argsort(cells, kind="stable")
    cells, sorted_values = cells[order], values[order]
    first = np.ones(cells.size, dtype=bool)
    first[1:] = cells[1:] != cells[:-1]
    setter = np.maximum.accumulate(np.where(first, np.arange(cells.size), 0))
    clash = np.flatnonzero(sorted_values != sorted_values[setter])
    if clash.size:
        p = clash[np.argmin(order[clash])]  # the first clash in graph order
        k, l = divmod(int(order[p]), Mj)
        raise GraphOverlapInconsistency(
            f"cell ({l},{int(cells[p]) % Mj}): {int(sorted_values[setter[p]])} "
            f"vs {int(sorted_values[p])} from graph {k}"
        )
    cells, arc_values = cells[first], sorted_values[first].tolist()
    shared = {v: Fraction(v) for v in set(arc_values)}  # one Fraction per value
    cost = CostMatrix.from_arcs(
        Mj,
        Mj,
        zip((cells // Mj).tolist(), (cells % Mj).tolist(), map(shared.get, arc_values)),
    )
    return TruncatedCost(
        graph_count=M_graphs,
        level=j,
        cost=cost,
        marginals=Marginals.uniform(Mj),
        finite_cells=len(arc_values),
    )


def _separation_radius(free_rows, free_cols, Mj: int) -> int:
    """Bottleneck of the circle matching of the free rows onto the free
    columns: the least, over perfect matchings, largest circle distance
    (index units) of a matched pair; 0 when nothing is free.  A cyclic
    shift of the two sorted lists attains it (Werman, Peleg, Melter and
    Kong, J. Algorithms 7, 1986), so it is the least radius r for which
    some shift keeps every pair within r: a bisection on r in
    [0, Mj // 2], at whose top every pair is."""
    rows = np.sort(np.asarray(free_rows, dtype=np.int64))
    cols = np.sort(np.asarray(free_cols, dtype=np.int64))
    n = rows.size
    if n == 0:
        return 0
    # Column index t % n at its place on the circle and one turn either
    # side, so the columns within r of a row are one run of indices t.
    around = np.concatenate([cols - Mj, cols, cols + Mj])
    row_index = np.arange(n)

    def within(r):
        """Whether some shift k puts every rows[i] within circle distance
        r of cols[(i + k) % n]."""
        first = np.searchsorted(around, rows - r, side="left")
        count = np.searchsorted(around, rows + r, side="right") - first
        if count.min() == 0:
            return False
        # The shifts a row allows are the cyclic interval [start, start +
        # count) mod n; a row with count >= n allows every shift.  Count
        # the intervals over each shift with a difference array on
        # 0..2n-1, folded onto 0..n-1.
        some = count < n
        start = (first[some] - row_index[some]) % n
        diff = np.bincount(start, minlength=2 * n + 1)
        diff -= np.bincount(start + count[some], minlength=2 * n + 1)
        cover = np.cumsum(diff[: 2 * n])
        return bool((cover[:n] + cover[n:] == some.sum()).any())

    lo, hi = 0, Mj // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if within(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _cheap_partial_plans(family: GapFamily, trunc: TruncatedCost):
    """Greedy partial plans of mass >= 2/3 and cost <= 1/2 assembled from
    the zero-cost cells of the finite graphs, topped up with diagonal
    mass; two row orders give two samples.  Each plan is a list of cells
    carrying mass 1/Mj, paired with its cost."""
    Mj = trunc.cost.n_rows
    w = Fraction(1, Mj)
    zero_cells = [
        (i, jj) for i, row in enumerate(trunc.cost.arcs) for jj, c in row.items() if not c
    ]
    plans = []
    for order in (1, -1):
        used_rows = set()
        used_cols = set()
        cells = []
        for (i, jj) in zero_cells[::order]:
            if i not in used_rows and jj not in used_cols:
                cells.append((i, jj))
                used_rows.add(i)
                used_cols.add(jj)
        cost = ZERO
        for i in range(Mj):
            if 3 * len(cells) >= 2 * Mj:
                break
            if i not in used_rows and i not in used_cols and cost + w <= Fraction(1, 2):
                cells.append((i, i))
                used_rows.add(i)
                used_cols.add(i)
                cost += w
        plans.append((cells, cost))
    # the full diagonal plan: mass 1 at cost 1, fails the cost gate and
    # is carried along so the report shows it excluded
    plans.append(([(i, i) for i in range(Mj)], Fraction(1)))
    return plans


@dataclass
class SeparationReport:
    """Primal/dual values of the truncated cost and the near-diagonal
    separation radius for the sampled cheap partial plans."""

    graph_count: int
    level: int
    primal: Fraction
    dual: Fraction
    values_ok: bool
    samples: list = field(default_factory=list)
    beta_threshold: Optional[Fraction] = None


def verify_truncated_duality(family: GapFamily, M_graphs: int, j: int) -> SeparationReport:
    trunc = materialize_cost(family, M_graphs, j)
    plan, duals = solve_certified(trunc.cost, trunc.marginals)
    ok = plan.value == 1 and duals.value == 1
    Mj = trunc.cost.n_rows

    samples = []
    thresholds = []
    for cells, cost in _cheap_partial_plans(family, trunc):
        # each row and column is used at most once, so every residual
        # marginal is 0 or 1/Mj and a completion is a perfect matching.
        # Marks, not np.unique or np.setdiff1d: on their first call numpy 2
        # imports numpy.ma, which no report needs (0.3-0.4 MB of peak RSS).
        used_rows = np.zeros(Mj, dtype=bool)
        used_cols = np.zeros(Mj, dtype=bool)
        used_rows[[i for i, _ in cells]] = True
        used_cols[[jj for _, jj in cells]] = True
        if not np.count_nonzero(used_rows) == np.count_nonzero(used_cols) == len(cells):
            raise AssertionError("a partial plan uses a row or column twice")
        mass = Fraction(len(cells), Mj)
        if not (mass >= Fraction(2, 3) and cost <= Fraction(1, 2)):
            samples.append({"mass": mass, "cost": cost, "excluded": True})
            continue
        # the largest radius with NO completion inside circle distance
        # < radius is the matching bottleneck itself
        free_rows = np.flatnonzero(~used_rows)
        free_cols = np.flatnonzero(~used_cols)
        beta = Fraction(_separation_radius(free_rows, free_cols, Mj), Mj)
        samples.append({"mass": mass, "cost": cost, "beta": beta, "excluded": False})
        thresholds.append(beta)

    return SeparationReport(
        graph_count=M_graphs,
        level=j,
        primal=plan.value,
        dual=duals.value,
        values_ok=ok,
        samples=samples,
        beta_threshold=min(thresholds) if thresholds else None,
    )


def gap_demonstration(family: GapFamily, M_graphs: int, j: int) -> dict:
    """Exact per-truncation evidence: P == D == 1, the witness transports
    of the zero-cost mass per row, and the eta trend."""
    tower = family.tower
    sep = verify_truncated_duality(family, M_graphs, j)
    Mj = tower.M[j - 1]

    eta = dict(family.eta_closed)
    eta_realized = {}
    witness_cost = {}
    witness_mass = {}
    phi = phi_level(tower, family.j_max).values
    for n in range(1, family.j_max + 1):
        sigma = sigma_of(tower, family.j_max, family.cell(n, family.j_max).tau)
        q = quasi_cost_values(phi, sigma)
        zero = int((q == 0).sum())
        eta_realized[n] = Fraction(Mj - zero, Mj)
        witness_mass[n] = Fraction(zero, Mj)
        witness_cost[n] = ZERO  # transporting only the zero-cost set

    etas = [eta[n] for n in sorted(eta)]
    report = {
        "M": M_graphs,
        "j": j,
        "primal": format_rational(sep.primal),
        "dual": format_rational(sep.dual),
        "eta": {str(n): format_rational(v) for n, v in sorted(eta.items())},
        "eta_realized": {
            str(n): format_rational(v) for n, v in sorted(eta_realized.items())
        },
        "witness_cost": {
            str(n): format_rational(v) for n, v in sorted(witness_cost.items())
        },
        "witness_mass": {
            str(n): format_rational(v) for n, v in sorted(witness_mass.items())
        },
        "eta_strictly_decreasing": all(a > b for a, b in zip(etas, etas[1:])),
        "beta_threshold": format_rational(sep.beta_threshold)
        if sep.beta_threshold is not None
        else None,
    }
    return report
