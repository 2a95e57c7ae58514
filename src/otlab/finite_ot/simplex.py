"""Exact primal simplex on the transportation polytope, in integers.

Costs come in as per-row arcs, `cost[i]` a dict of row i's finite cells
{column: int >= 0} in increasing column order; every other cell is INF.
Supplies and demands are positive ints.  The callers (`solvers`) scale
their Fractions to such ints once, and decode the results once: the
arc costs by the LCM of their denominators, the masses by the LCM of
theirs.  Scaling by positive integers preserves every comparison, and
total unimodularity keeps each flow an integer.  An INF cell is encoded
as BIG = 2*(2(m+n)+1)*top + 1, for top the largest arc cost.  Read an
INF cell as one infinity unit plus a finite part 0: a tree potential
sums at most m+n-1 basic cells with alternating signs, so the finite
part of a potential or a reduced cost is at most (2(m+n)-1)*top in
size, below BIG/2.  The integer order is then the lexicographic big-M
order (Ahuja, Magnanti and Orlin, Network Flows, 1993), and each
potential decodes to its units and finite part.  The plan value is INF
when an INF cell carries flow (the NoFinitePlan certificate), and an
optimal tree potential is None when it carries an infinity unit.

Only arcs are priced.  An INF cell enters the basis only with the start
tree and, once it leaves, never returns, so the simplex solves the LP
over the arcs and the INF cells still basic, in the big-M order.  Every
finite plan is feasible there with no infinity unit, so the optimum
charges an INF cell exactly when no finite plan exists.

The basis is a spanning tree on the rows and columns, hung from a root
row, and it is always strongly feasible: every zero-flow basic cell is
a row hanging below its column, so its arc points toward the root and
positive flow could be pushed from any node to the root (Cunningham,
Math. Programming 11, 1976).  Both starts are built that way.  Uniform
square instances start from a tree around a finite perfect matching,
rooted at the lowest row from which it spans (`_matching_start`).  The
matching tries each row's arcs cheapest first, ties by column, so the
start plan is near the optimum when the rows' cheap arcs rarely share a
column; when they form a permutation it is the optimal plan, and only
degenerate pivots (on the zero-flow cells) follow.  Every other
instance starts from the regret-ordered least-cost tree, rooted at row
0 (`_least_cost_start`): the arcs cheapest first, ties by the row's
regret, then north-west over the INF cells for what remains, and one
zero-flow cell, on a finite arc where one exists, to hang each further
positive-flow component below a column of the tree.

Pricing is block search (Grigoriadis, Math. Programming Study 26,
1986).  The rows with arcs are scanned cyclically in blocks of whole
rows holding at least ceil(sqrt(A)) arcs, for A the arc count; the most
negative reduced cost of the first block that has one enters (the first
in row-major order among ties), and the next scan starts at the row
after that block.  A dense n x n instance thus prices one row per
block.  A scan that goes once round every row without a negative
reduced cost ends at the optimum.  The block size follows from the
input; nothing tunes it.

The leaving cell follows Cunningham's rule: walk the cycle the entering
cell closes from its apex (the common ancestor of the entering cell's
row and column) down to the entering row, across the entering cell and
up from its column, and take the last blocking cell met (a cell whose
flow falls, of minimum flow).  This keeps the tree strongly feasible.
Cells on the column side that lose flow hang a column below a row, so
they carry positive flow; a degenerate pivot therefore cuts the
entering row's side and hangs it below the entering column, which moves
its potentials by the (negative) entering reduced cost: the sum of the
row potentials less the sum of the column potentials falls.  Every
other pivot lowers the plan value, so no tree repeats and nothing
cycles, whatever the entering rule.

The root's potential is 0 while pivoting; the potentials are shifted
once at the end to the contract's u[0] = 0.
"""

from __future__ import annotations

from itertools import chain
from math import isqrt
from operator import itemgetter, sub

from ..rational import INF


def _perfect_finite_matching(adj, n):
    """Kuhn's algorithm on a square instance whose row i has finite
    cells in the columns adj[i], tried in that order; None when no
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
    """Uniform square case: a strongly feasible spanning tree around a
    finite perfect matching, for the finite cells adj[i] of each row i
    (dicts {column: cost} in increasing column order), each row trying
    its cells cheapest first, ties by column.  A breadth-first search
    from the root row gives each row its matched cell (the mass) and
    each reached column, as zero-flow children, the unreached rows with
    a finite cell in it, so every zero-flow cell is a row hanging below
    its column.  The root is the lowest row from which that tree spans
    every row.  Returns (flow on the tree's cells, root row), or None
    when no row spans or the instance is not uniform square."""
    m, n = len(supply), len(demand)
    if m != n or len(set(supply)) != 1 or len(set(demand)) != 1 or supply[0] != demand[0]:
        return None
    # A stable sort of each row's increasing columns by cost.
    match_col = _perfect_finite_matching([sorted(row, key=row.__getitem__) for row in adj], n)
    if match_col is None:
        return None
    mate = [0] * n
    for j, i in enumerate(match_col):
        mate[i] = j
    col_rows = [[] for _ in range(n)]
    for i, row in enumerate(adj):
        for j in row:
            col_rows[j].append(i)
    flow = {}
    seen = [False] * n

    def hang(root):
        """Grow the tree from row root over the unseen rows; returns the
        number of rows it took."""
        seen[root] = True
        order = [root]
        for i in order:
            j = mate[i]
            flow[(i, j)] = supply[i]
            for k in col_rows[j]:
                if not seen[k]:
                    seen[k] = True
                    flow[(k, j)] = 0
                    order.append(k)
        return len(order)

    root = 0
    if hang(0) < n:
        # No row outside the rows from which the tree spans reaches one
        # of them, so growing from each unseen row in index order starts
        # last from the lowest of them, if there is one.
        for s in range(1, n):
            if not seen[s]:
                root = s
                hang(s)
        flow.clear()
        seen[:] = [False] * n
        if hang(root) < n:
            return None
    return flow, root


def _least_cost_start(cost, supply, demand, big):
    """The regret-ordered least-cost tree, rooted at row 0 (Vogel's rule:
    Reinfeld and Vogel, 1958).  The arcs are taken cheapest first, ties
    by the row's regret (its second-cheapest cell cost less its
    cheapest, an INF or missing second cell costing big), larger first,
    then row-major; each carries min(remaining supply, remaining
    demand).  What remains goes north-west over the rows and columns
    left, all of whose cells are INF.  Each positive-flow component
    other than row 0's then hangs by one zero-flow cell, its row below a
    column of the tree.  The tree grows breadth-first from row 0's
    component: its columns are taken in the order the components join,
    each component's in index order, and each column hangs, on a finite
    arc, every row outside the tree that has one there, in index order.
    When no finite arc reaches the tree, the lowest row outside it hangs
    on an INF cell below the first column of the tree.  Every mass is
    positive, so each component holds a row and a column and the tree
    spans.  Returns the flow on the tree's cells."""
    m, n = len(supply), len(demand)
    rem_s = list(supply)
    rem_d = list(demand)
    ranked = []
    for i, row in enumerate(cost):
        if row:
            low, second = sorted(row.values())[:2] if len(row) > 1 else (*row.values(), big)
            ranked += [(c, low - second, i, j) for j, c in row.items()]
    ranked.sort()
    flow = {}
    for _, _, i, j in ranked:
        x = min(rem_s[i], rem_d[j])
        if x:
            flow[(i, j)] = x
            rem_s[i] -= x
            rem_d[j] -= x
    left_rows = [i for i in range(m) if rem_s[i]]
    left_cols = [j for j in range(n) if rem_d[j]]
    a = b = 0
    while a < len(left_rows):
        i, j = left_rows[a], left_cols[b]
        x = min(rem_s[i], rem_d[j])
        flow[(i, j)] = x
        rem_s[i] -= x
        rem_d[j] -= x
        a += not rem_s[i]
        b += not rem_d[j]

    row_cols = [[] for _ in range(m)]
    col_rows = [[] for _ in range(n)]
    for i, j in flow:
        row_cols[i].append(j)
        col_rows[j].append(i)
    arc_rows = [[] for _ in range(n)]
    for i, row in enumerate(cost):
        for j in row:
            arc_rows[j].append(i)
    seen = [False] * m
    reached = [False] * n
    order = []  # the tree's columns, each component's in index order

    def take(r):
        """Add row r's positive-flow component to the tree."""
        seen[r] = True
        todo = [r]
        cols = []
        for i in todo:
            for j in row_cols[i]:
                if not reached[j]:
                    reached[j] = True
                    cols.append(j)
                    for k in col_rows[j]:
                        if not seen[k]:
                            seen[k] = True
                            todo.append(k)
        order.extend(sorted(cols))

    take(0)
    at = 0
    for r in range(m):
        while at < len(order):
            j = order[at]
            at += 1
            for k in arc_rows[j]:
                if not seen[k]:
                    flow[(k, j)] = 0
                    take(k)
        if not seen[r]:
            flow[(r, order[0])] = 0
            take(r)
    return flow


def _gather(nodes):
    """pot -> the tuple of pot[k] for k in nodes, gathered in C (a bare
    itemgetter returns the item itself for a single index)."""
    if len(nodes) == 1:
        (k,) = nodes
        return lambda pot: (pot[k],)
    return itemgetter(*nodes)


def _big(cost, n):
    """BIG, the encoding of an INF cell for the int arcs `cost` of n
    columns: 2*(2(m+n)+1)*top + 1, for top the largest arc cost."""
    top = max((c for row in cost for c in row.values()), default=0)
    return 2 * (2 * (len(cost) + n) + 1) * top + 1


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


def solve_transport(cost, supply, demand):
    """Minimize sum(c*x) over x >= 0 with prescribed row/col sums, in ints.

    cost: per row, a dict {column: int >= 0} of its finite cells in
    increasing column order; every other cell is INF.
    supply/demand: positive ints with equal totals.
    Returns (flow, value, u, v): the int flow on every basic cell of the
    optimal tree, the plan value sum(c*x) (INF when an INF cell carries
    flow) and the optimal tree potentials, rooted at u[0] = 0, with
    u[i] + v[j] = c(i, j) on every basic cell; a potential that carries
    an infinity unit is None.
    """
    m, n = len(supply), len(demand)
    big = _big(cost, n)

    def cell_cost(i, j):
        return cost[i].get(j, big)

    start = _matching_start(cost, supply, demand)
    if start is None:
        flow, root = _least_cost_start(cost, supply, demand, big), 0
    else:
        flow, root = start

    # The basis tree on nodes 0..m-1 (rows) and m..m+n-1 (columns).
    adj = [[] for _ in range(m + n)]
    for (bi, bj) in flow:
        adj[bi].append(m + bj)
        adj[m + bj].append(bi)

    # Parents, depths and potentials from the root row (pot[root] = 0).
    pot = [0] * (m + n)
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    for z in _reroot(root, -1, adj, parent, depth)[1:]:
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
    block = isqrt(sum(map(len, cost)) - 1) + 1 if priced else 0  # ceil(sqrt(arcs))
    at = 0  # the priced row the next pass starts from
    while True:
        # Block search: the most negative reduced cost of the first block
        # that has one, scanning cyclically from where the last pass
        # stopped; a basic cell's reduced cost is exactly 0.
        best = 0
        size = 0
        gather = None
        for t in range(len(priced)):
            ci, costs, row_gather = priced[(at + t) % len(priced)]
            if row_gather is not gather:
                gather = row_gather
                v = gather(pot)
            r = min(map(sub, costs, v)) - pot[ci]
            if r < best:
                best, found = r, (ci, costs, v)
            size += len(costs)
            if size >= block:
                if best < 0:
                    break
                size = 0
        if best == 0:
            break
        at = (at + t + 1) % len(priced)
        ei, costs, v = found
        reduced = list(map(sub, costs, v))
        ej = list(cost[ei])[reduced.index(min(reduced))]
        entering = (ei, ej)

        # The cycle closed by the entering cell: climb from its row and
        # its column to their common ancestor, the apex.  Cells on the
        # row side are traversed row->column at row nodes, so those are
        # the - cells; on the column side the - cells are the ones at
        # column nodes.  Each side is listed from the entering cell up.
        row_minus = []
        col_minus = []
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
            if (x < m) != row_side:
                plus.append(cell)
            elif row_side:
                row_minus.append(cell)
            else:
                col_minus.append(cell)
        theta = min(flow[cell] for cell in chain(row_minus, col_minus))
        # Cunningham's rule: the last blocking cell on the walk from the
        # apex down the row side, across the entering cell and up the
        # column side, which keeps the tree strongly feasible.
        leaving = next((cell for cell in reversed(col_minus) if flow[cell] == theta), None)
        row_side = leaving is None
        if row_side:
            leaving = next(cell for cell in row_minus if flow[cell] == theta)
        for cell in chain(row_minus, col_minus):
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
        if row_side:
            q, w, shift = ei, m + ej, best
        else:
            q, w, shift = m + ej, ei, -best
        for z in _reroot(q, w, adj, parent, depth):
            pot[z] += shift if z < m else -shift

    def potential(x):  # a*BIG + f -> f, or None when a != 0
        return None if abs(x) > big // 2 else x

    if any(f and j not in cost[i] for (i, j), f in flow.items()):
        value = INF
    else:
        value = sum(cost[i][j] * f for (i, j), f in flow.items() if f)
    # Re-root the potentials at u[0] = 0.
    u = [potential(x - pot[0]) for x in pot[:m]]
    v = [potential(x + pot[0]) for x in pot[m:]]
    return flow, value, u, v
