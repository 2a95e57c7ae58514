"""The Fraction slackness audit that
`otlab.finite_ot.solvers.check_complementary_slackness` replaced: one
Fraction subtraction pair per arc and per charged cell.  The tests
require the integer audit to list the same cells in the same order."""


def slackness_violations(plan, duals, cost):
    """(support_violations, feasibility_violations) as tuples of cells:
    charged cells that are INF or where phi+psi < c, and finite cells
    where phi+psi > c, each in row-major order."""
    phi, psi = duals.phi, duals.psi
    feas_bad = [
        (i, j)
        for i, row in enumerate(cost.arcs)
        for j, c in row.items()
        if c - phi[i] - psi[j] < 0
    ]
    support_bad = [
        (i, j)
        for (i, j), w in plan.cells.items()
        if w > 0 and (j not in cost.arcs[i] or cost.arcs[i][j] - phi[i] - psi[j] > 0)
    ]
    return tuple(support_bad), tuple(feas_bad)
