"""Cyclical monotonicity certificates for support sets.

One Bellman-Ford on row/column nodes decides both questions.  Row i
holds a(i) = -phi(i) and column node m+j holds psi(j); the arc i -> m+j
of weight c(i, j) for every finite cell encodes phi(i)+psi(j) <= c(i, j),
and the arc m+j -> i of weight -c(i, j) for every support cell the
reverse inequality, so equality on the support.  A cycle alternates the
two kinds, and its support cells (i_1, j_1), ..., (i_k, j_k), in cycle
order, weigh sum_t c(i_t, j_{t+1}) - c(i_t, j_t): a negative cycle is
exactly a violation of the closed-cycle inequality, and without one the
shortest distances are the potentials (Rockafellar, Pacific J. Math. 17,
1966).

The pass relaxes plain ints: `types.integer_arcs` scales every arc cost
by the least common denominator d of the costs, once.  Scaling by d > 0
keeps every strict comparison, so the relaxations, the predecessors and
the witness cycle are those of the same pass over Fractions, and each
distance is d times its Fraction value; the potentials are divided by d
only when `strong_monotone_potentials` returns them.
"""

from __future__ import annotations

from fractions import Fraction

from .types import CostMatrix, DualPair, InfiniteCostInSupport, integer_arcs


def _check_support(support, cost: CostMatrix):
    cells = sorted(support)
    for (i, j) in cells:
        if not (0 <= i < cost.n_rows and 0 <= j < cost.n_cols):
            raise InfiniteCostInSupport(f"cell {(i, j)} outside cost matrix")
        if not cost.is_finite(i, j):
            raise InfiniteCostInSupport(f"support cell {(i, j)} has infinite cost")
    return cells


def _bellman_ford(support, cost: CostMatrix):
    """(dist, d, None) with the shortest distances from a virtual source
    at 0 to every node, as ints over the common denominator d of the arc
    costs, or (None, None, witness) with the support cells of a negative
    cycle in cycle order."""
    cells = _check_support(support, cost)
    rows, _, scale = integer_arcs(cost.arcs)
    m, n = cost.n_rows, cost.n_cols
    into = [[] for _ in range(m)]
    for i, j in cells:
        into[i].append((m + j, i, -rows[i][j]))
    # Row by row, the support arcs into row i before the finite arcs out of
    # it, so a pass relaxes a row's finite arcs right after the support arc
    # that lowered it; on dense n = 16 optimal supports all finite arcs
    # first is 1.5x slower.
    arcs = []
    for i, row in enumerate(rows):
        arcs += into[i]
        arcs += [(i, m + j, c) for j, c in row.items()]

    nn = m + n
    dist = [0] * nn
    pred = [None] * nn
    for _ in range(nn):
        last = None
        for a, b, w in arcs:
            d = dist[a] + w
            if d < dist[b]:
                dist[b] = d
                pred[b] = a
                last = b
        if last is None:
            return dist, scale, None
    # Still relaxing after nn passes: walk back nn steps to land inside
    # the cycle, then collect it.
    node = last
    for _ in range(nn):
        node = pred[node]
    cycle = [node]
    cur = pred[node]
    while cur != node:
        cycle.append(cur)
        cur = pred[cur]
    cycle.reverse()
    # Each column -> row step of the cycle is a support cell.
    return None, None, [
        (cycle[(t + 1) % len(cycle)], col - m)
        for t, col in enumerate(cycle)
        if col >= m
    ]


def is_cyclically_monotone(support, cost: CostMatrix):
    """Return (True, None) or (False, witness_cycle_of_cells).

    A witness (i_1, j_1), ..., (i_k, j_k) has every c(i_t, j_{t+1})
    finite and sum_t c(i_t, j_{t+1}) - c(i_t, j_t) < 0, indices mod k.
    """
    *_, witness = _bellman_ford(support, cost)
    return witness is None, witness


def strong_monotone_potentials(support, cost: CostMatrix):
    """Potentials (phi, psi) with phi+psi <= c everywhere finite and
    equality on the support; None iff the support is not cyclically
    monotone."""
    dist, scale, _ = _bellman_ford(support, cost)
    if dist is None:
        return None
    m = cost.n_rows
    return DualPair(
        [Fraction(-x, scale) for x in dist[:m]], [Fraction(x, scale) for x in dist[m:]]
    )
