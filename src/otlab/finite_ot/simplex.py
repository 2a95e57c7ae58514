"""Exact primal simplex on the transportation polytope, in integers.

Costs come in as pairs (inf_units, finite), so a forbidden cell carries
one symbolic infinity unit, and supplies and demands as positive
Fractions.  The solver scales them to plain Python ints once:

- the finite cost parts by the LCM of their denominators;
- the supplies and demands by the LCM of theirs;
- a cost pair (a, f) to the integer a*BIG + f.  A tree potential is an
  alternating sum along a path of at most m+n-1 basic cells, so the
  finite part of a potential or a reduced cost is at most
  (2(m+n)-1)*max|f| in size, and BIG = 2*(2(m+n)+1)*max|f| + 1 is more
  than twice that.  The integer order of costs, potentials and reduced
  costs is then exactly the lexicographic (inf_units, finite) order, and
  each encoded potential decodes back to its pair.

Scaling by positive integers preserves every comparison, so the solver
pivots through the bases the pair arithmetic would, with every flow
times the mass scale, and total unimodularity of the transportation
polytope keeps each flow an integer.  Flows, the plan value and the
optimal tree potentials are converted back to Fractions once, at the
end.  The value's inf_units part comes from the flow on INF cells, not
from the encoded objective: a positive one is the NoFinitePlan
certificate.

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


def _perfect_finite_matching(ext_cost, n):
    """Kuhn's algorithm on the finite cells of a square instance; None
    when no perfect finite matching exists.  The augmenting-path search
    is a depth-first search on an explicit stack of (row, column
    iterator) frames."""
    adj = [[j for j in range(n) if ext_cost[i][j][0] == 0] for i in range(n)]
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


def _matching_start(ext_cost, supply, demand):
    """Uniform square case: a spanning tree around a finite perfect
    matching (mass on the matching, zero on finite connector cells).
    Returns (flow, basis_set) or None when inapplicable."""
    m, n = len(supply), len(demand)
    if m != n or len(set(supply)) != 1 or len(set(demand)) != 1 or supply[0] != demand[0]:
        return None
    match_col = _perfect_finite_matching(ext_cost, n)
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
            if ext_cost[i][j][0] == 0 and find(i) != find(n + j):
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


def solve_transport(ext_cost, supply, demand):
    """Minimize sum(c*x) over x >= 0 with prescribed row/col sums.

    ext_cost: list of rows of (inf_units, Fraction) pairs.
    supply/demand: positive Fractions with equal totals.
    Returns (flow, value, u, v): the Fraction flow on every basic cell of
    the optimal tree, the plan value as an (inf_units, Fraction) pair and
    the optimal tree potentials as pairs, rooted at u[0] = (0, 0), with
    u[i] + v[j] = c(i, j) on every basic cell.
    """
    m, n = len(supply), len(demand)
    cost_scale = lcm(*{c[1].denominator for row in ext_cost for c in row})
    mass_scale = lcm(*{x.denominator for x in supply}, *{x.denominator for x in demand})
    finite = [
        [c[1].numerator * (cost_scale // c[1].denominator) for c in row]
        for row in ext_cost
    ]
    big = 2 * (2 * (m + n) + 1) * max(abs(f) for row in finite for f in row) + 1
    cost = [
        [c[0] * big + f for c, f in zip(row, frow)]
        for row, frow in zip(ext_cost, finite)
    ]
    supply = [x.numerator * (mass_scale // x.denominator) for x in supply]
    demand = [x.numerator * (mass_scale // x.denominator) for x in demand]

    start = _matching_start(ext_cost, supply, demand)
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

    def pair(x):  # a*BIG + f -> (a, f / cost_scale), as |f| < BIG/2
        units = (x + big // 2) // big
        return (units, Fraction(x - units * big, cost_scale))

    inf_mass = 0
    finite_value = 0
    for (bi, bj), f in flow.items():
        inf_mass += ext_cost[bi][bj][0] * f
        finite_value += finite[bi][bj] * f
    value = (Fraction(inf_mass, mass_scale), Fraction(finite_value, cost_scale * mass_scale))
    u = [pair(x) for x in pot[:m]]
    v = [pair(x) for x in pot[m:]]
    return {cell: Fraction(f, mass_scale) for cell, f in flow.items()}, value, u, v
