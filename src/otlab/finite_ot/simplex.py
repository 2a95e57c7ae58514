"""Exact primal simplex on the transportation polytope, in integers.

Costs come in as per-row arcs, `arcs[i]` a dict of row i's finite cells
{column: Fraction >= 0} in increasing column order; every other cell is
INF.  Supplies and demands are positive Fractions.  The solver scales
them to plain Python ints once:

- the arc costs by the LCM of their denominators, the masses by the
  LCM of theirs;
- an INF cell to BIG = 2*(2(m+n)+1)*top + 1, for top the largest scaled
  arc cost.  Read an INF cell as one infinity unit plus a finite part
  0: a tree potential sums at most m+n-1 basic cells with alternating
  signs, so the finite part of a potential or a reduced cost is at most
  (2(m+n)-1)*top in size, below BIG/2.  The integer order is then the
  lexicographic big-M order (Ahuja, Magnanti and Orlin, Network Flows,
  1993), and each potential decodes to its units and finite part.

Scaling by positive integers preserves every comparison, and total
unimodularity keeps each flow an integer.  Flows, the plan value (INF
when an INF cell carries flow: the NoFinitePlan certificate) and the
optimal tree potentials (None when one carries an infinity unit) are
converted back to Fractions once, at the end.

Only arcs are priced.  An INF cell enters the basis only with the
north-west start and, once it leaves, never returns, so the simplex
solves the LP over the arcs and the INF cells still basic, in the big-M
order.  Every finite plan is feasible there with no infinity unit, so
the optimum charges an INF cell exactly when no finite plan exists.

Pivoting is Bland's rule in row-major arc order (entering: first arc
with negative reduced cost; leaving: lowest-index cell among minimum
ratio ties), which is anti-cycling and makes the solver deterministic.
The start is a spanning tree around a finite perfect matching for
uniform square instances and the north-west corner otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter, sub

from ..rational import INF


def _perfect_finite_matching(adj, n):
    """Kuhn's algorithm on a square instance whose row i has finite
    cells in the columns adj[i], in increasing order; None when no
    perfect finite matching exists.  The augmenting-path search is a
    depth-first search on an explicit stack of (row, column iterator)
    frames."""
    match_col = [-1] * n
    seen = [-1] * n  # seen[j] == root: column j visited from row root

    def augment(root):
        frames = [(root, iter(adj[root]))]
        via = []  # via[t]: the column frame t went through to frame t+1
        while frames:
            for j in frames[-1][1]:
                if seen[j] != root:
                    seen[j] = root
                    via.append(j)
                    if match_col[j] < 0:
                        for (i, _), jj in zip(frames, via):
                            match_col[jj] = i
                        return True
                    frames.append((match_col[j], iter(adj[match_col[j]])))
                    break
            else:
                frames.pop()
                if via:
                    via.pop()
        return False

    for i in range(n):
        if not augment(i):
            return None
    return match_col


def _matching_start(adj, supply, demand):
    """Uniform square case: a spanning tree around a finite perfect
    matching (mass on the matching, zero on finite connector cells), for
    finite cells in the columns adj[i] of each row i.  Returns the flow
    on the tree's cells, or None when inapplicable."""
    m, n = len(supply), len(demand)
    if m != n or len(set(supply)) != 1 or len(set(demand)) != 1 or supply[0] != demand[0]:
        return None
    match_col = _perfect_finite_matching(adj, n)
    if match_col is None:
        return None
    flow = {}
    parent = list(range(2 * n))  # union-find over rows 0..n-1, cols n..2n-1

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for j, i in enumerate(match_col):
        flow[(i, j)] = supply[i]
        parent[find(i)] = find(n + j)
    comps = n
    for i in range(n):
        if comps == 1:
            break
        for j in adj[i]:
            if find(i) != find(n + j):
                flow[(i, j)] = 0
                parent[find(i)] = find(n + j)
                comps -= 1
                if comps == 1:
                    break
    if comps != 1:
        return None
    return flow


def _gather(nodes):
    """pot -> the tuple of pot[k] for k in nodes, gathered in C (a bare
    itemgetter returns the item itself for a single index)."""
    if len(nodes) == 1:
        (k,) = nodes
        return lambda pot: (pot[k],)
    return itemgetter(*nodes)


def _decoder(scale):
    """x -> Fraction(x, scale), one shared Fraction per distinct x: an
    optimal tree's flows and potentials take few distinct values."""
    made = {}

    def decode(x):
        f = made.get(x)
        if f is None:
            f = made[x] = Fraction(x, scale)
        return f

    return decode


def _reroot(q, w, adj, parent, depth):
    """Hang the subtree holding node q from node w, or make q the root
    when w < 0: reset the parents and depths below q.  Returns the
    subtree's nodes, each after its parent."""
    parent[q] = w
    depth[q] = depth[w] + 1 if w >= 0 else 0
    order = [q]
    for y in order:
        py = parent[y]
        dy = depth[y] + 1
        for z in adj[y]:
            if z != py:
                parent[z] = y
                depth[z] = dy
                order.append(z)
    return order


def solve_transport(arcs, supply, demand):
    """Minimize sum(c*x) over x >= 0 with prescribed row/col sums.

    arcs: per row, a dict {column: Fraction >= 0} of its finite cells in
    increasing column order; every other cell is INF.
    supply/demand: positive Fractions with equal totals.
    Returns (flow, value, u, v): the Fraction flow on every basic cell of
    the optimal tree, the plan value (INF when an INF cell carries flow)
    and the optimal tree potentials, rooted at u[0] = 0, with u[i] + v[j]
    = c(i, j) on every basic cell; a potential that carries an infinity
    unit is None.
    """
    m, n = len(supply), len(demand)
    cost_scale = lcm(*{c.denominator for row in arcs for c in row.values()})
    cost = [
        {j: c.numerator * (cost_scale // c.denominator) for j, c in row.items()}
        for row in arcs
    ]
    top = max((c for row in cost for c in row.values()), default=0)
    big = 2 * (2 * (m + n) + 1) * top + 1
    mass_scale = lcm(*{x.denominator for x in supply}, *{x.denominator for x in demand})
    supply = [x.numerator * (mass_scale // x.denominator) for x in supply]
    demand = [x.numerator * (mass_scale // x.denominator) for x in demand]

    def cell_cost(i, j):
        return cost[i].get(j, big)

    flow = _matching_start(cost, supply, demand)
    if flow is None:
        # Northwest-corner start; ties add one degenerate basic cell so
        # the basis always has exactly m+n-1 cells (a spanning tree).
        rem_s = list(supply)
        rem_d = list(demand)
        flow = {}
        i = j = 0
        while True:
            x = min(rem_s[i], rem_d[j])
            flow[(i, j)] = x
            rem_s[i] -= x
            rem_d[j] -= x
            if i == m - 1 and j == n - 1:
                break
            if rem_s[i] == 0 and i < m - 1:
                i += 1
            else:
                j += 1

    # The basis tree on nodes 0..m-1 (rows) and m..m+n-1 (columns).
    adj = [[] for _ in range(m + n)]
    for (bi, bj) in flow:
        adj[bi].append(m + bj)
        adj[m + bj].append(bi)

    # Parents, depths and potentials from the root, row 0 (u[0] = 0).
    pot = [0] * (m + n)
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    for z in _reroot(0, -1, adj, parent, depth)[1:]:
        y = parent[z]
        pot[z] = (cell_cost(y, z - m) if y < m else cell_cost(z, y - m)) - pot[y]

    # Each row with arcs is priced as its arc costs less its columns'
    # potentials (nodes m + j), gathered in C.  Consecutive rows on the
    # same columns share one gather, made once per pricing pass.
    priced = []
    last = {}
    for i, row in enumerate(cost):
        if row:
            if row.keys() != last.keys():
                gather = _gather([m + j for j in row])
            last = row
            priced.append((i, list(row.values()), gather))
    while True:
        # Bland pricing; a basic cell's reduced cost is exactly 0.
        entering = None
        gather = None
        for ci, costs, row_gather in priced:
            if row_gather is not gather:
                gather = row_gather
                v = gather(pot)
            ui = pot[ci]
            if min(map(sub, costs, v)) < ui:
                k = next(k for k, r in enumerate(map(sub, costs, v)) if r < ui)
                entering = (ci, list(cost[ci])[k])
                break
        if entering is None:
            break
        ei, ej = entering

        # The cycle closed by the entering cell: climb from its row and
        # its column to their common ancestor.  Cells on the row side are
        # traversed row->column at row nodes, so those are the - cells;
        # on the column side the - cells are the ones at column nodes.
        minus = []
        plus = []
        a, b = ei, m + ej
        while a != b:
            if depth[a] >= depth[b]:
                x, row_side = a, True
                a = parent[a]
            else:
                x, row_side = b, False
                b = parent[b]
            p = parent[x]
            cell = (x, p - m) if x < m else (p, x - m)
            if (x < m) == row_side:
                minus.append((flow[cell], cell, row_side))
            else:
                plus.append(cell)
        theta, leaving, row_side = min(minus)  # lowest cell among ties
        for _, cell, _ in minus:
            flow[cell] -= theta
        for cell in plus:
            flow[cell] += theta
        flow[entering] = theta
        del flow[leaving]
        li, lj = leaving
        adj[li].remove(m + lj)
        adj[m + lj].remove(li)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)

        # The leaving cell cut off the subtree holding the entering
        # cell's row (row side) or column; hang it from the entering
        # cell's other end and shift its potentials so that the entering
        # cell's reduced cost becomes 0.
        r = cost[ei][ej] - pot[ei] - pot[m + ej]  # the entering cell is an arc
        if row_side:
            q, w, shift = ei, m + ej, r
        else:
            q, w, shift = m + ej, ei, -r
        for z in _reroot(q, w, adj, parent, depth):
            pot[z] += shift if z < m else -shift

    as_potential = _decoder(cost_scale)
    as_mass = _decoder(mass_scale)

    def potential(x):  # a*BIG + f -> f / cost_scale, or None when a != 0
        return None if abs(x) > big // 2 else as_potential(x)

    if any(f and j not in cost[i] for (i, j), f in flow.items()):
        value = INF
    else:
        charged = sum(cost[i][j] * f for (i, j), f in flow.items() if f)
        value = Fraction(charged, cost_scale * mass_scale)
    u = [potential(x) for x in pot[:m]]
    v = [potential(x) for x in pot[m:]]
    return {cell: as_mass(f) for cell, f in flow.items()}, value, u, v
