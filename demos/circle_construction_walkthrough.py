"""Level-by-level walk through the circle construction on the (5, 11) tower.

Shows the modulus tower, the counting potential phi at both levels, the
interval permutations with their good/singular split, the quasi-cost
step functions, and the exact singular-mass ledger.
"""

from otlab.circle import build_tower, phi_level
from otlab.duals import level_scalars, verify_feasibility
from otlab.tau import (
    build_levels,
    quasi_cost,
    singular_ledger,
    transport_cost_tau,
    verify_level,
)

tower = build_tower(5, 2)
print(f"tower: primes {tower.primes}, moduli {tower.M}, "
      f"angle numerators {tower.P} ({tower.mode} growth)")
print()

print("level 1 (five intervals):")
print(f"  phi   {phi_level(tower, 1).values.tolist()}")
levels = build_levels(tower, 2)
l1, l2 = levels
print(f"  tau   {l1.tau.tolist()}")
print(f"  sigma {l1.sigma.tolist()}   good {l1.good_indices().tolist()} "
      f"singular {l1.singular_indices().tolist()}")
print(f"  quasi-cost {quasi_cost(l1, tower).values.tolist()}  (mean exactly 1)")
led = singular_ledger(l1, tower)
print(f"  singular mass {led.singular_mass}  (= -1 + 3/5)")
print()

print("level 2 (55 intervals): the two singular blocks split into")
print("compensating good halves plus ten singular sub-blocks each,")
print("re-routed into the middle of their image blocks.")
rep = verify_level(l2, tower)
print(f"  permutation {rep.permutation_ok}, nesting {rep.nesting_ok}, "
      f"middle avoidance {rep.middle_avoidance_ok}")
led2 = singular_ledger(l2, tower)
print(f"  singular children {rep.singular_count}, mass {led2.singular_mass}")
print(f"  change measure {led2.change_measure}, good deviation {led2.good_deviation}")
total, positive, good_part = transport_cost_tau(l2, tower)
print(f"  transport cost: total {total}, clipped {positive}, surviving {good_part}")
print()

print("the raw potentials are already tight on all three graphs:")
for level in levels:
    s = level_scalars(level, tower)
    feas = verify_feasibility(level, tower)
    print(f"  level {level.level}: feasible {feas.passed}, "
          f"dual value {s.dual_value}, correction norm {s.correction_norm}")
