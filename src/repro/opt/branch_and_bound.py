"""Exact 0-1 integer programming through scipy's HiGHS MILP backend.

:func:`solve_binary_program` hands an :class:`IntegerProgram` to
``scipy.optimize.milp`` (scipy >= 1.9), whose HiGHS branch and bound is
exact and fast at the few hundred binaries recourse produces.  Node,
time and gap budgets are forwarded as HiGHS options, so a pathological
program cannot hang a serving thread.
"""

from __future__ import annotations

import numpy as np

from repro.opt.integer_program import IntegerProgram, IPSolution
from repro.utils.exceptions import RecourseInfeasibleError


def solve_binary_program(
    program: IntegerProgram,
    max_nodes: int = 200_000,
    time_limit: float | None = None,
    mip_rel_gap: float | None = None,
) -> IPSolution:
    """Solve ``program`` exactly with HiGHS.

    ``max_nodes``, ``time_limit`` and ``mip_rel_gap`` bound the search
    through HiGHS ``options``.  Raises :class:`RecourseInfeasibleError`
    on proven infeasibility, on an exhausted budget, and on any other
    non-optimal HiGHS status (named in the message).
    """
    if program.n_variables == 0:
        return IPSolution(values={}, objective=0.0, n_nodes=0)
    # Imported at the call site: only processes that solve pay for it.
    from scipy.optimize import Bounds, LinearConstraint, milp

    c, A_ub, b_ub, A_eq, b_eq = program.matrices()
    constraints = []
    if A_ub is not None:
        constraints.append(LinearConstraint(A_ub, -np.inf, b_ub))
    if A_eq is not None:
        constraints.append(LinearConstraint(A_eq, b_eq, b_eq))
    options: dict = {}
    if max_nodes is not None:
        options["node_limit"] = int(max_nodes)
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if mip_rel_gap is not None:
        options["mip_rel_gap"] = float(mip_rel_gap)
    result = milp(
        c,
        constraints=constraints,
        integrality=np.ones(program.n_variables),
        bounds=Bounds(0, 1),
        options=options,
    )
    if result.status == 2:  # infeasible
        raise RecourseInfeasibleError("no feasible integral assignment exists")
    if result.status == 1:  # iteration / node / time limit reached
        raise RecourseInfeasibleError(
            f"MILP node/time budget exhausted (max_nodes={max_nodes}, "
            f"time_limit={time_limit})"
        )
    if result.status != 0:
        raise RecourseInfeasibleError(
            f"HiGHS MILP ended with status {result.status}: {result.message}"
        )
    return IPSolution(
        values=program.assignment_from_vector(result.x),
        objective=float(result.fun),
        n_nodes=0,
    )
