"""Exact primal simplex on the transportation polytope, in integers.

Costs come in as rows of Fractions >= 0 or INF, supplies and demands as
positive Fractions.  The solver scales them to plain Python ints once:

- the finite costs by the LCM of their denominators, the masses by the
  LCM of theirs;
- an INF cell to BIG = 2*(2(m+n)+1)*top + 1, for top the largest scaled
  finite cost.  Read an INF cell as one infinity unit plus a finite part
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

Pivoting is Bland's rule in row-major cell order (entering: first cell
with negative reduced cost; leaving: lowest-index cell among minimum
ratio ties), which is anti-cycling and makes the solver deterministic.
The start is a spanning tree around a finite perfect matching for
uniform square instances and the north-west corner otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import sub

from ..rational import INF


def _perfect_finite_matching(cost, big, n):
    """Kuhn's algorithm on the finite cells (encoded cost below big) of a
    square instance; None when no perfect finite matching exists.  The
    augmenting-path search is a depth-first search on an explicit stack
    of (row, column iterator) frames."""
    adj = [[j for j in range(n) if cost[i][j] < big] for i in range(n)]
    match_col = [-1] * n

    def augment(root, seen):
        frames = [(root, iter(adj[root]))]
        via = []  # via[t]: the column frame t went through to frame t+1
        while frames:
            for j in frames[-1][1]:
                if not seen[j]:
                    seen[j] = True
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
        if not augment(i, [False] * n):
            return None
    return match_col


def _matching_start(cost, big, supply, demand):
    """Uniform square case: a spanning tree around a finite perfect
    matching (mass on the matching, zero on finite connector cells).
    Returns (flow, basis_set) or None when inapplicable."""
    m, n = len(supply), len(demand)
    if m != n or len(set(supply)) != 1 or len(set(demand)) != 1 or supply[0] != demand[0]:
        return None
    match_col = _perfect_finite_matching(cost, big, n)
    if match_col is None:
        return None
    flow = {}
    basis_set = set()
    parent = list(range(2 * n))  # union-find over rows 0..n-1, cols n..2n-1

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for j, i in enumerate(match_col):
        flow[(i, j)] = supply[i]
        basis_set.add((i, j))
        parent[find(i)] = find(n + j)
    comps = n
    for i in range(n):
        if comps == 1:
            break
        for j in range(n):
            if cost[i][j] < big and find(i) != find(n + j):
                basis_set.add((i, j))
                flow[(i, j)] = 0
                parent[find(i)] = find(n + j)
                comps -= 1
                if comps == 1:
                    break
    if comps != 1:
        return None
    return flow, basis_set


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


def solve_transport(costs, supply, demand):
    """Minimize sum(c*x) over x >= 0 with prescribed row/col sums.

    costs: rows of Fractions >= 0 or INF.
    supply/demand: positive Fractions with equal totals.
    Returns (flow, value, u, v): the Fraction flow on every basic cell of
    the optimal tree, the plan value (INF when an INF cell carries flow)
    and the optimal tree potentials, rooted at u[0] = 0, with u[i] + v[j]
    = c(i, j) on every basic cell; a potential that carries an infinity
    unit is None.
    """
    m, n = len(supply), len(demand)
    finite = [c for row in costs for c in row if c is not INF]
    cost_scale = lcm(*{c.denominator for c in finite})
    top = max(finite, default=Fraction(0))
    big = 2 * (2 * (m + n) + 1) * (top.numerator * (cost_scale // top.denominator)) + 1
    cost = [
        [big if c is INF else c.numerator * (cost_scale // c.denominator) for c in row]
        for row in costs
    ]
    mass_scale = lcm(*{x.denominator for x in supply}, *{x.denominator for x in demand})
    supply = [x.numerator * (mass_scale // x.denominator) for x in supply]
    demand = [x.numerator * (mass_scale // x.denominator) for x in demand]

    start = _matching_start(cost, big, supply, demand)
    if start is not None:
        flow, basis = start
    else:
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
        basis = flow

    # The basis tree on nodes 0..m-1 (rows) and m..m+n-1 (columns).
    adj = [[] for _ in range(m + n)]
    for (bi, bj) in basis:
        adj[bi].append(m + bj)
        adj[m + bj].append(bi)

    # Parents, depths and potentials from the root, row 0 (u[0] = 0).
    pot = [0] * (m + n)
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    for z in _reroot(0, -1, adj, parent, depth)[1:]:
        y = parent[z]
        pot[z] = (cost[y][z - m] if y < m else cost[z][y - m]) - pot[y]

    while True:
        # Bland pricing; a basic cell's reduced cost is exactly 0.
        v = pot[m:]
        entering = None
        for ci in range(m):
            ui = pot[ci]
            if min(map(sub, cost[ci], v)) < ui:
                cj = next(j for j, r in enumerate(map(sub, cost[ci], v)) if r < ui)
                entering = (ci, cj)
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
        r = cost[ei][ej] - pot[ei] - pot[m + ej]
        if row_side:
            q, w, shift = ei, m + ej, r
        else:
            q, w, shift = m + ej, ei, -r
        for z in _reroot(q, w, adj, parent, depth):
            pot[z] += shift if z < m else -shift

    def potential(x):  # a*BIG + f -> f / cost_scale, or None when a != 0
        return None if abs(x) > big // 2 else Fraction(x, cost_scale)

    inf_flow = any(f and cost[i][j] == big for (i, j), f in flow.items())
    charged = sum(cost[i][j] * f for (i, j), f in flow.items())
    value = INF if inf_flow else Fraction(charged, cost_scale * mass_scale)
    u = [potential(x) for x in pot[:m]]
    v = [potential(x) for x in pot[m:]]
    return {cell: Fraction(f, mass_scale) for cell, f in flow.items()}, value, u, v
