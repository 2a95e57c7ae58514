"""Double-indexed map family and the truncated-cost gap demonstration.

A grid of interval permutations tau_{n,j} (1 <= n <= j): row n is seeded
at column n by a fresh within-block shuffle at scale n (built with a
positive singular mass: the quasi-cost vanishes on the long bulk runs
and spikes to about m_n/(2*M_{n-1}) on 2*M_{n-1} sub-blocks per block),
and each later column refines the row by the keep-and-fill rule.  Every
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

from .circle import ModulusTower, phi_level, quasi_cost_values
from .finite_ot import CostMatrix, Marginals, solve_certified
# Unused here, but perfbench/bench_trace.py wraps gap.solve_primal for --trace 1.
from .finite_ot import solve_primal  # noqa: F401
from .rational import INF, format_rational
from .tau import (
    GrowthTooSmall,
    TauLevel,
    _avoidance_step,
    _require_permutation,
    build_tau_level1,
    extend_tau,
    is_permutation,
    sigma_of,
)

ZERO = Fraction(0)


class GraphOverlapInconsistency(Exception):
    """The same cell received two different clipped costs."""


def _invert(tau, sigma):
    """tau-vector of the inverse map; the reversed orbits keep the
    middle-avoidance of the forward ones."""
    tau_inv = np.empty_like(tau)
    tau_inv[sigma] = -tau
    return tau_inv


def _diagonal_seed(tower: ModulusTower, j: int) -> TauLevel:
    """Fresh row-j map: inverse of the within-block shuffle that moves
    the bulk outward by M_{j-1} sub-blocks and throws the 2*M_{j-1}
    boundary sub-blocks onto the central gaps."""
    m = tower.primes[j - 1]
    M = tower.M[j - 1]
    M_prev = tower.M[j - 2] if j >= 2 else 1
    Pinv = tower.step_inverse(j)
    mid = tower.middle_index(j)
    half = (m - 1) // 2

    if j == 1:
        # scale-1 seed: inverse of the level-1 construction map
        base = build_tau_level1(tower)
        tau = _invert(base.tau, base.sigma)
        return TauLevel(1, tau, sigma_of(tower, 1, tau))

    if m < 2 * M_prev + 1:
        raise GrowthTooSmall(f"m_{j} = {m} < 2*M_{j-1}+1 = {2 * M_prev + 1}")

    tau_fwd = np.zeros(M, dtype=np.int64)
    subs = np.arange(m)
    left_bulk = (subs >= M_prev) & (subs <= half - 1)
    right_bulk = (subs >= half + 1) & (subs <= m - 1 - M_prev)
    boundary = (subs < M_prev) | (subs >= m - M_prev)
    covered = np.zeros(m, dtype=bool)
    covered[subs[left_bulk] - M_prev] = True
    covered[subs[right_bulk] + M_prev] = True
    covered[half] = True
    gaps = subs[~covered]
    bnd = subs[boundary]
    if gaps.shape[0] != bnd.shape[0]:
        raise GrowthTooSmall("diagonal seed gaps do not match its boundary")

    for p in range(M_prev):
        lo = p * m
        tau_fwd[lo + subs[left_bulk]] = -M_prev
        tau_fwd[lo + subs[right_bulk]] = M_prev
        tau_fwd[lo + half] = 0
        for s, d in zip(bnd, gaps):
            tau_fwd[lo + s] = _avoidance_step(M, Pinv, mid, lo + int(s), lo + int(d))

    sigma_fwd = sigma_of(tower, j, tau_fwd)
    _require_permutation(sigma_fwd, f"diagonal seed at level {j}")
    tau = _invert(tau_fwd, sigma_fwd)
    return TauLevel(j, tau, sigma_of(tower, j, tau))


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
            return np.zeros(M, dtype=np.int64)
        if n == 1:
            return np.ones(M, dtype=np.int64)
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
    permutation_ok = is_permutation(cell.sigma)

    q = quasi_cost_values(phi_level(tower, j).values, cell.sigma)
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

    d = (cell.sigma - np.arange(M, dtype=np.int64)) % M
    disp = int(np.minimum(d, M - d).max())
    block = Fraction(M, tower.M[n - 2]) if n >= 2 else Fraction(M)

    return RowReport(
        row=n,
        level=j,
        permutation_ok=permutation_ok,
        quasi_cost_mean_one=mean_one,
        eta=eta,
        two_valued_error=approx_err,
        two_valued_target=Fraction(1, 2**n),
        displacement_max=Fraction(disp, M),
        displacement_bound=block / M,
    )


@dataclass
class TruncatedCost:
    """Clipped cost on the union of M+1 graphs, as a dense matrix."""

    graph_count: int
    level: int
    cost: CostMatrix
    marginals: Marginals
    finite_cells: int


def materialize_cost(family: GapFamily, M_graphs: int, j: int) -> TruncatedCost:
    """Dense M_j x M_j cost: clipped quasi-cost on the graphs of the
    identity, the one-step rotation and the limit maps 2..M_graphs;
    infinite elsewhere."""
    if j != family.j_max:
        raise ValueError("costs are materialized at the deepest built column")
    if M_graphs < 1 or M_graphs > family.j_max:
        raise ValueError(f"M must be in 1..{family.j_max}")
    tower = family.tower
    Mj = tower.M[j - 1]
    entries = [[INF] * Mj for _ in range(Mj)]
    finite = 0
    phi = phi_level(tower, j).values
    for k in range(0, M_graphs + 1):
        sigma = family.limit_sigma(k)
        q = quasi_cost_values(phi, sigma)
        for l in range(Mj):
            tgt = int(sigma[l])
            val = Fraction(max(int(q[l]), 0))
            old = entries[l][tgt]
            if old is INF:
                entries[l][tgt] = val
                finite += 1
            elif old != val:
                raise GraphOverlapInconsistency(
                    f"cell ({l},{tgt}): {old} vs {val} from graph {k}"
                )
    cost = CostMatrix(entries)
    return TruncatedCost(
        graph_count=M_graphs,
        level=j,
        cost=cost,
        marginals=Marginals.uniform(Mj),
        finite_cells=finite,
    )


def _separation_radius(free_rows, free_cols, Mj: int) -> int:
    """Bottleneck of the circle matching of the free rows onto the free
    columns: the least, over perfect matchings, largest circle distance
    (index units) of a matched pair; 0 when nothing is free.  A cyclic
    shift of the two sorted lists attains it (Werman, Peleg, Melter and
    Kong, J. Algorithms 7, 1986)."""
    rows = np.sort(np.asarray(free_rows, dtype=np.int64))
    cols = np.sort(np.asarray(free_cols, dtype=np.int64))
    best = 0 if rows.size == 0 else Mj
    for k in range(rows.size):
        d = np.abs(rows - np.roll(cols, k))
        best = min(best, int(np.minimum(d, Mj - d).max()))
    return best


def _cheap_partial_plans(family: GapFamily, trunc: TruncatedCost):
    """Greedy partial plans of mass >= 2/3 and cost <= 1/2 assembled from
    the zero-cost cells of the finite graphs, topped up with diagonal
    mass; two row orders give two samples.  Each plan is a list of cells
    carrying mass 1/Mj, paired with its cost."""
    Mj = trunc.cost.n_rows
    w = Fraction(1, Mj)
    zero_cells = [
        (i, jj) for i, jj in trunc.cost.finite_cells() if trunc.cost[i, jj] == 0
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
    everything = np.arange(Mj)
    for cells, cost in _cheap_partial_plans(family, trunc):
        rows = np.array([i for i, _ in cells], dtype=np.int64)
        cols = np.array([jj for _, jj in cells], dtype=np.int64)
        # each row and column is used at most once, so every residual
        # marginal is 0 or 1/Mj and a completion is a perfect matching
        if not np.unique(rows).size == np.unique(cols).size == len(cells):
            raise AssertionError("a partial plan uses a row or column twice")
        mass = Fraction(len(cells), Mj)
        if not (mass >= Fraction(2, 3) and cost <= Fraction(1, 2)):
            samples.append({"mass": mass, "cost": cost, "excluded": True})
            continue
        # the largest radius with NO completion inside circle distance
        # < radius is the matching bottleneck itself
        free_rows = np.setdiff1d(everything, rows)
        free_cols = np.setdiff1d(everything, cols)
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
        q = quasi_cost_values(phi, family.cell(n, family.j_max).sigma)
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
