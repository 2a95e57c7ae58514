"""The Fraction transport simplex, kept as a test oracle.

This is the pair-arithmetic form of `otlab.finite_ot.simplex`: costs are
(inf_units, Fraction) pairs compared lexicographically, flows are
Fractions, and the tree potentials, the rooted tree and the pivot cycle
are rebuilt from scratch on every pivot.  It runs the same rules over
the finite cells only: the same start trees (the regret-ordered
least-cost tree from row 0, or the tree around a matching that tries
each row's finite cells cheapest first, ties by column, grown
breadth-first from the lowest row from which it spans), block-search
pricing over whole rows of at least ceil(sqrt(finite cell count))
cells, scanned cyclically, and
Cunningham's leaving rule (the last blocking cell on the cycle walked
from its apex along the entering cell).  So the integer solver must
return the very same flow dict, value and potentials.  It also asserts
after the start and after every pivot that the tree is strongly
feasible: every zero-flow basic cell is a row hanging below its column.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _is_neg(a):
    return a[0] < 0 or (a[0] == 0 and a[1] < 0)


def _perfect_finite_matching(ext_cost, n):
    """Kuhn's algorithm on the finite cells of a square instance, each
    row trying its cells cheapest first, ties by column; None when no
    perfect finite matching exists.  The augmenting-path search is a
    depth-first search on an explicit stack of (row, column iterator)
    frames."""
    adj = [
        sorted(
            (j for j in range(n) if ext_cost[i][j][0] == 0),
            key=lambda j: (ext_cost[i][j][1], j),
        )
        for i in range(n)
    ]
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
    matching (mass on the matching, zero on finite connector cells),
    grown breadth-first from a root row: each row takes its matched
    cell, and each reached column takes as zero-flow children, in row
    order, the unreached rows with a finite cell in it.  The root is the
    lowest row from which that tree spans.  Returns (flow, basis_set,
    root), or None when inapplicable."""
    m, n = len(supply), len(demand)
    if m != n or len(set(supply)) != 1 or len(set(demand)) != 1 or supply[0] != demand[0]:
        return None
    match_col = _perfect_finite_matching(ext_cost, n)
    if match_col is None:
        return None
    mate = {i: j for j, i in enumerate(match_col)}
    for root in range(n):
        flow = {}
        queue = [root]
        for i in queue:
            j = mate[i]
            flow[(i, j)] = supply[i]
            for k in range(n):
                if ext_cost[k][j][0] == 0 and k not in queue:
                    flow[(k, j)] = ZERO
                    queue.append(k)
        if len(queue) == n:
            return flow, set(flow), root
    return None


def _component(cells, r):
    """The rows and the columns of row r's component over `cells`."""
    rows = {r}
    while True:
        cols = {j for i, j in cells if i in rows}
        more = {i for i, j in cells if j in cols}
        if more <= rows:
            return rows, cols
        rows |= more


def _least_cost_start(ext_cost, supply, demand):
    """The regret-ordered least-cost start, rooted at row 0: the finite
    cells cheapest first, ties by the row's regret (its second-cheapest
    cell less its cheapest, as pairs, an INF cell or a missing second
    cell counting as (1, 0)), larger first, then row-major, each taking
    min(remaining supply, remaining demand); north-west over the rows
    and columns left; then, breadth-first from row 0's component, with
    each joining component's columns queued in index order, each queued
    column hangs the rows outside the tree with a finite cell in it, in
    row order, and their components; when none is left, the lowest row
    outside hangs on its INF cell below the first queued column."""
    m, n = len(supply), len(demand)
    inf = (1, ZERO)
    ranked = []
    for i in range(m):
        low, second = sorted(ext_cost[i] + [inf])[:2]
        regret = _sub(second, low)
        ranked += [
            (c, (-regret[0], -regret[1]), i, j)
            for j, c in enumerate(ext_cost[i])
            if c[0] == 0
        ]
    rem_s, rem_d = list(supply), list(demand)
    flow = {}
    for _, _, i, j in sorted(ranked):
        x = min(rem_s[i], rem_d[j])
        if x > 0:
            flow[(i, j)] = x
            rem_s[i] -= x
            rem_d[j] -= x
    for i in range(m):
        for j in range(n):
            x = min(rem_s[i], rem_d[j])
            if x > 0:
                assert ext_cost[i][j][0] == 1, "a finite cell left with mass at both ends"
                flow[(i, j)] = x
                rem_s[i] -= x
                rem_d[j] -= x
    positive = list(flow)
    tree = set()
    queue = []

    def take(r):
        rows, cols = _component(positive, r)
        tree.update(rows)
        queue.extend(sorted(cols))

    take(0)
    at = 0
    while len(tree) < m:
        if at < len(queue):
            j = queue[at]
            at += 1
            for k in range(m):
                if k not in tree and ext_cost[k][j][0] == 0:
                    flow[(k, j)] = ZERO
                    take(k)
        else:
            r = min(set(range(m)) - tree)
            flow[(r, queue[0])] = ZERO
            take(r)
    return flow


def solve_transport(ext_cost, supply, demand):
    """Minimize sum(c*x) over x >= 0 with prescribed row/col sums.

    ext_cost: list of rows of (inf_units, Fraction) pairs.
    supply/demand: positive Fractions with equal totals.
    Returns (flows dict, value pair, u, v) with u, v tree potentials.
    """
    m, n = len(supply), len(demand)

    start = _matching_start(ext_cost, supply, demand)
    if start is None:
        flow, root = _least_cost_start(ext_cost, supply, demand), 0
        basis_set = set(flow)
    else:
        flow, basis_set, root = start

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

    def parents():
        # Each node's parent in the basis tree hung from the root row,
        # found by DFS over basic cells.
        rows, cols = tree_adjacency()
        up = {("r", root): None}
        stack = [("r", root)]
        while stack:
            node = stack.pop()
            kind, k = node
            nxt = [("c", bj) for bj in rows[k]] if kind == "r" else [("r", bi) for bi in cols[k]]
            for y in nxt:
                if y not in up:
                    up[y] = node
                    stack.append(y)
        assert len(up) == m + n, "the basis is not a spanning tree"
        return up

    def assert_strongly_feasible():
        # Every zero-flow basic cell is a row hanging below its column,
        # so positive flow could be sent from any node to the root.
        up = parents()
        for (bi, bj), f in flow.items():
            assert f >= 0
            if f == 0:
                assert up[("r", bi)] == ("c", bj), f"zero-flow cell {(bi, bj)} points away from the root"

    def pivot_walk(ei, ej):
        # The nodes of the cycle the entering cell closes, walked along
        # the entering cell from the apex (the deepest common ancestor of
        # its row and column): down to row ei, across to column ej, back
        # up to the apex.
        up = parents()

        def to_root(node):
            path = [node]
            while up[path[-1]] is not None:
                path.append(up[path[-1]])
            return path

        from_row = to_root(("r", ei))
        from_col = to_root(("c", ej))
        apex = next(x for x in from_row if x in from_col)
        down = from_row[: from_row.index(apex) + 1][::-1]
        return down + from_col[: from_col.index(apex) + 1]

    finite = [[j for j in range(n) if ext_cost[i][j][0] == 0] for i in range(m)]
    priced = [i for i in range(m) if finite[i]]
    arc_count = sum(len(cells) for cells in finite)
    block = 0
    while block * block < arc_count:
        block += 1
    at = 0
    assert_strongly_feasible()
    while True:
        # Block search over the priced rows, cyclically from `at`: the
        # most negative reduced cost (the first among ties) of the first
        # block of whole rows holding at least `block` finite cells that
        # has a negative one.  Only finite cells are priced: an INF cell
        # never enters.
        u, v = potentials()
        entering = None
        best = None
        size = 0
        for t in range(len(priced)):
            ci = priced[(at + t) % len(priced)]
            for cj in finite[ci]:
                if (ci, cj) in basis_set:
                    continue
                r = _sub(_sub(ext_cost[ci][cj], u[ci]), v[cj])
                if _is_neg(r) and (best is None or _is_neg(_sub(r, best))):
                    best = r
                    entering = (ci, cj)
            size += len(finite[ci])
            if size >= block:
                if entering:
                    break
                size = 0
        if entering is None:
            break
        at = (at + t + 1) % len(priced)

        walk = pivot_walk(*entering)
        cells = []  # (cell, sign) along the walk
        for x, y in zip(walk, walk[1:]):
            if x[0] == "r":
                cells.append(((x[1], y[1]), 1))
            else:
                cells.append(((y[1], x[1]), -1))
        theta = min(flow[cell] for cell, sign in cells if sign < 0)
        # Cunningham's rule: the last blocking cell on the walk.
        leaving = [cell for cell, sign in cells if sign < 0 and flow[cell] == theta][-1]
        flow[entering] = ZERO
        for cell, sign in cells:
            flow[cell] += sign * theta
        basis_set.remove(leaving)
        basis_set.add(entering)
        del flow[leaving]
        assert_strongly_feasible()

    value = (0, ZERO)
    for (bi, bj), f in flow.items():
        if f > 0:
            c = ext_cost[bi][bj]
            value = (value[0] + c[0] * f, value[1] + c[1] * f)
    u, v = potentials()
    return flow, value, u, v
