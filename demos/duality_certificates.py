"""Tour of the exact finite transport solver and its certificates.

Solves a random rational instance, confirms that the primal and dual
values agree as exact fractions, audits complementary slackness, and
shows a cyclical-monotonicity witness on a deliberately bad support.
"""

import random
from fractions import Fraction as F

from otlab.finite_ot import (
    CostMatrix,
    Marginals,
    check_complementary_slackness,
    is_cyclically_monotone,
    solve_certified,
    strong_monotone_potentials,
)

rng = random.Random(12)
N = 6
cost = CostMatrix(
    [[F(rng.randint(0, 30), rng.randint(1, 4)) for _ in range(N)] for _ in range(N)]
)
marg = Marginals.uniform(N)

plan, pair = solve_certified(cost, marg)
print(f"primal value  {plan.value}")
print(f"dual value    {pair.value}")
print(f"strong duality holds exactly: {plan.value == pair.value}")

report = check_complementary_slackness(plan, pair, cost)
print(f"complementary slackness: {'pass' if report.passed else 'FAIL'}")

support = sorted(plan.support())
ok, _ = is_cyclically_monotone(support, cost)
print(f"optimizer support is cyclically monotone: {ok}")
potentials = strong_monotone_potentials(support, cost)
print(f"support potentials tight on {len(support)} cells: "
      f"{all(potentials.phi[i] + potentials.psi[j] == cost[i, j] for i, j in support)}")

print()
print("a support that swaps two cheap diagonal cells is not monotone:")
swap_cost = CostMatrix([[0, 1], [1, 0]])
ok, witness = is_cyclically_monotone({(0, 1), (1, 0)}, swap_cost)
print(f"  monotone: {ok}; witness cycle: {witness} (the swap saves 2)")
