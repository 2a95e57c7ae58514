"""Reference budgeted relaxed dual: the general-form LP on the dense
exact tableau (`otlab.finite_ot.lp.solve_lp`).

    max sum(phi*mu) + sum(psi*nu)
    s.t. s(i,j) >= phi(i)+psi(j) - c(i,j), s >= 0 on supp(pi0),
         sum(s * pi0) <= eps.

Free potentials are split as phi = phi+ - phi-, the excess constraints
get slacks w and the budget a slack t.  The tests compare
`solve_relaxed_dual` with this LP's value exactly.
"""

from __future__ import annotations

from fractions import Fraction

from otlab.finite_ot import DualPair
from otlab.finite_ot.lp import solve_lp

ZERO = Fraction(0)


def lp_relaxed_dual(cost, marg, pi0, eps) -> DualPair:
    support = sorted(pi0.support())
    m, n = cost.n_rows, cost.n_cols
    k = len(support)
    # Variables: phi+ (m), phi- (m), psi+ (n), psi- (n), s (k), w (k), t (1)
    nv = 2 * m + 2 * n + 2 * k + 1
    off_phi_m = m
    off_psi_p = 2 * m
    off_psi_m = 2 * m + n
    off_s = 2 * m + 2 * n
    off_w = off_s + k
    off_t = off_w + k

    A = []
    b = []
    for r, (i, j) in enumerate(support):
        row = [ZERO] * nv
        row[i] = Fraction(1)
        row[off_phi_m + i] = Fraction(-1)
        row[off_psi_p + j] = Fraction(1)
        row[off_psi_m + j] = Fraction(-1)
        row[off_s + r] = Fraction(-1)
        row[off_w + r] = Fraction(1)
        A.append(row)
        b.append(cost[i, j])
    budget = [ZERO] * nv
    for r, (i, j) in enumerate(support):
        budget[off_s + r] = pi0.entries[i][j]
    budget[off_t] = Fraction(1)
    A.append(budget)
    b.append(Fraction(eps))

    c = [ZERO] * nv
    for i in range(m):
        c[i] = -marg.mu[i]
        c[off_phi_m + i] = marg.mu[i]
    for j in range(n):
        c[off_psi_p + j] = -marg.nu[j]
        c[off_psi_m + j] = marg.nu[j]

    x, value = solve_lp(A, b, c)
    phi = [x[i] - x[off_phi_m + i] for i in range(m)]
    psi = [x[off_psi_p + j] - x[off_psi_m + j] for j in range(n)]
    return DualPair(phi, psi, -value)
