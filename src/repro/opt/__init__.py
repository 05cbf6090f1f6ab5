"""0-1 integer programming: model container and exact solver.

The counterfactual-recourse problem of Section 4.2 is a small binary
integer program.  This subpackage provides a named-variable container
(:class:`IntegerProgram`) and :func:`solve_binary_program`, which solves
it exactly with scipy's HiGHS MILP backend under node, time and gap
budgets.
"""

from repro.opt.integer_program import IntegerProgram, IPSolution
from repro.opt.branch_and_bound import solve_binary_program

__all__ = [
    "IntegerProgram",
    "IPSolution",
    "solve_binary_program",
]
