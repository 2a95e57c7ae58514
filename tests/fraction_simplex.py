"""The Fraction transport simplex, kept as a test oracle.

This is the pair-arithmetic form of `otlab.finite_ot.simplex`: costs are
(inf_units, Fraction) pairs compared lexicographically, flows are
Fractions, and the tree potentials are rebuilt and the pivot cycle
searched from scratch on every pivot.  It runs the same start and the
same Bland pivots, over the finite cells only, so the integer solver
must return the very same flow dict, value and potentials.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _is_neg(a):
    return a[0] < 0 or (a[0] == 0 and a[1] < 0)


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
                flow[(i, j)] = ZERO
                parent[find(i)] = find(n + j)
                comps -= 1
                if comps == 1:
                    break
    if comps != 1:
        return None
    return flow, basis_set


def solve_transport(ext_cost, supply, demand):
    """Minimize sum(c*x) over x >= 0 with prescribed row/col sums.

    ext_cost: list of rows of (inf_units, Fraction) pairs.
    supply/demand: positive Fractions with equal totals.
    Returns (flows dict, value pair, u, v) with u, v tree potentials.
    """
    m, n = len(supply), len(demand)

    start = _matching_start(ext_cost, supply, demand)
    if start is not None:
        flow, basis_set = start
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
        basis_set = set(flow)

    def tree_adjacency():
        rows = [[] for _ in range(m)]
        cols = [[] for _ in range(n)]
        for (bi, bj) in basis_set:
            rows[bi].append(bj)
            cols[bj].append(bi)
        return rows, cols

    def potentials():
        rows, cols = tree_adjacency()
        u = [None] * m
        v = [None] * n
        u[0] = (0, ZERO)
        stack = [("r", 0)]
        while stack:
            kind, k = stack.pop()
            if kind == "r":
                for bj in rows[k]:
                    if v[bj] is None:
                        v[bj] = _sub(ext_cost[k][bj], u[k])
                        stack.append(("c", bj))
            else:
                for bi in cols[k]:
                    if u[bi] is None:
                        u[bi] = _sub(ext_cost[bi][k], v[k])
                        stack.append(("r", bi))
        return u, v

    def find_cycle(ei, ej):
        # Unique path in the basis tree from row ei to col ej, found by
        # DFS over basic cells; the entering cell closes the cycle.
        rows, cols = tree_adjacency()
        parent = {}
        start = ("r", ei)
        target = ("c", ej)
        stack = [start]
        seen = {start}
        while stack:
            node = stack.pop()
            if node == target:
                break
            kind, k = node
            if kind == "r":
                for bj in rows[k]:
                    nxt = ("c", bj)
                    if nxt not in seen:
                        seen.add(nxt)
                        parent[nxt] = node
                        stack.append(nxt)
            else:
                for bi in cols[k]:
                    nxt = ("r", bi)
                    if nxt not in seen:
                        seen.add(nxt)
                        parent[nxt] = node
                        stack.append(nxt)
        path = [target]
        while path[-1] != start:
            path.append(parent[path[-1]])
        path.reverse()
        # path alternates r,c,r,c,... ; convert node path to cell list
        cells = [(ei, ej)]
        for a, b in zip(path, path[1:]):
            if a[0] == "r":
                cells.append((a[1], b[1]))
            else:
                cells.append((b[1], a[1]))
        return cells  # cells[0] entering (+), then alternating -,+,...

    while True:
        u, v = potentials()
        entering = None
        for ci in range(m):
            row_c = ext_cost[ci]
            ui = u[ci]
            for cj in range(n):
                # only finite cells are priced: an INF cell never enters
                if (ci, cj) in basis_set or row_c[cj][0]:
                    continue
                r = _sub(_sub(row_c[cj], ui), v[cj])
                if _is_neg(r):
                    entering = (ci, cj)
                    break
            if entering:
                break
        if entering is None:
            break

        cells = find_cycle(*entering)
        minus = cells[1::2]
        theta = None
        leaving = None
        for cell in minus:
            f = flow[cell]
            if theta is None or f < theta or (f == theta and cell < leaving):
                theta = f
                leaving = cell
        for k, cell in enumerate(cells):
            if k == 0:
                flow[cell] = theta
            elif k % 2 == 1:
                flow[cell] -= theta
            else:
                flow[cell] += theta
        basis_set.remove(leaving)
        basis_set.add(entering)
        del flow[leaving]

    value = (0, ZERO)
    for (bi, bj), f in flow.items():
        if f > 0:
            c = ext_cost[bi][bj]
            value = (value[0] + c[0] * f, value[1] + c[1] * f)
    u, v = potentials()
    return flow, value, u, v
