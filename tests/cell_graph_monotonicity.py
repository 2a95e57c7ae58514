"""The two Bellman-Fords that `otlab.finite_ot.monotonicity` replaced.

The verdict ran on the cell graph of the support; the potentials then
ran a second pass on the row/column difference-constraint graph with
the finite arcs first.  The tests compare the single row/column pass
against both.
"""

from fractions import Fraction

from otlab.finite_ot import DualPair
from otlab.rational import is_inf

ZERO = Fraction(0)


def is_cyclically_monotone(support, cost):
    """(True, None) or (False, witness): Bellman-Ford on the cell graph,
    whose nodes are the support cells and whose arc (i,j) -> (i',j')
    costs c(i,j') - c(i,j) and exists iff c(i,j') is finite."""
    cells = sorted(support)
    k = len(cells)
    if k == 0:
        return True, None
    arcs = []
    for a, (i, j) in enumerate(cells):
        for b, (i2, j2) in enumerate(cells):
            if a == b:
                continue
            cij2 = cost[i, j2]
            if is_inf(cij2):
                continue
            arcs.append((a, b, cij2 - cost[i, j]))

    dist = [ZERO] * k
    pred = [None] * k
    cycle_node = None
    for it in range(k):
        changed = False
        for a, b, w in arcs:
            if dist[a] + w < dist[b]:
                dist[b] = dist[a] + w
                pred[b] = a
                changed = True
                if it == k - 1:
                    cycle_node = b
        if not changed:
            return True, None
    if cycle_node is None:
        return True, None
    node = cycle_node
    for _ in range(k):
        node = pred[node]
    cycle = [node]
    cur = pred[node]
    while cur != node:
        cycle.append(cur)
        cur = pred[cur]
    cycle.reverse()
    return False, [cells[a] for a in cycle]


def strong_monotone_potentials(support, cost):
    """The cell-graph verdict, then Bellman-Ford on row/column nodes with
    every finite arc before every support arc; None if not monotone."""
    ok, _ = is_cyclically_monotone(support, cost)
    if not ok:
        return None
    m, n = cost.n_rows, cost.n_cols
    nn = m + n
    arcs = [(i, m + j, cost[i, j]) for i, j in cost.finite_cells()]
    arcs += [(m + j, i, -cost[i, j]) for i, j in sorted(support)]
    dist = [ZERO] * nn
    for _ in range(nn):
        changed = False
        for a, b, w in arcs:
            if dist[a] + w < dist[b]:
                dist[b] = dist[a] + w
                changed = True
        if not changed:
            break
    return DualPair([-dist[i] for i in range(m)], [dist[m + j] for j in range(n)])
